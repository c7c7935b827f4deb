"""Analysis-as-a-service: the unified, incremental analysis layer.

Public surface::

    from repro.analysis import AnalysisConfig, AnalysisSession

    session = AnalysisSession(AnalysisConfig(cache=True, jobs=4))
    report = session.lint_paths(["src"])      # warm files from cache
    result = session.optimize_file("mod.py")  # same config, same cache

The session is the one programmatic entry point for linting and
optimizing; ``python -m repro.analysis`` exposes the same surface as a
CLI and a line-delimited-JSON daemon.
"""

from .cache import (
    AnalysisCache,
    CacheStats,
    default_cache_dir,
    reset_stats,
    stats,
)
from .config import AnalysisConfig
from .schema import SCHEMA_VERSION, SchemaError
from .session import AnalysisSession

__all__ = [
    "AnalysisCache",
    "AnalysisConfig",
    "AnalysisSession",
    "CacheStats",
    "SCHEMA_VERSION",
    "SchemaError",
    "default_cache_dir",
    "reset_stats",
    "stats",
]
