"""ConceptLint: the whole-program static-analysis driver (Section 3.1,
"STLlint ... analyzes whole programs").

Layers a project-level harness over the :mod:`repro.stllint` symbolic
interpreter and the :mod:`repro.concepts` modeling machinery::

    python -m repro.lint examples/                 # text report
    python -m repro.lint src/ --format json        # machine-readable
    python -m repro.lint app.py --fail-on error    # gate only on errors

Or from Python, via the unified analysis session::

    from repro.analysis import AnalysisConfig, AnalysisSession

    session = AnalysisSession(AnalysisConfig(fail_on="warning"))
    report = session.lint_paths(["examples/"])
    print(report.render_text())
    bad = report.fails("warning")

Per-line suppression uses ``# stllint: ignore[<check>]`` comments; the
available check codes are listed by ``python -m repro.lint --list-checks``.
"""

from .concept_pass import ConceptFinding, run_concept_pass
from .driver import (
    SEVERITY_ORDER,
    FileReport,
    LintConfig,
    LintFinding,
    ProjectReport,
    discover_files,
)
from .suppressions import (
    ALL_CHECKS,
    UNKNOWN_SUPPRESSION_CODE,
    UNUSED_SUPPRESSION,
    all_check_codes,
    check_code,
    collect_suppressions,
)
from .cli import main

__all__ = [
    "LintConfig", "LintFinding", "FileReport", "ProjectReport",
    "discover_files",
    "SEVERITY_ORDER",
    "run_concept_pass", "ConceptFinding",
    "check_code", "all_check_codes", "collect_suppressions", "ALL_CHECKS",
    "UNUSED_SUPPRESSION", "UNKNOWN_SUPPRESSION_CODE",
    "main",
]
