"""repro.optimize — the end-to-end source-to-source optimizer.

The paper's Section 3.2 observes that complete verification "would permit
high-level optimizations that improve the asymptotic performance of
generic algorithms".  This package closes that loop over the repo's own
machinery: STLlint's symbolic interpreter *proves* the flow facts
(:mod:`repro.facts`), the sequence taxonomy's per-algorithm metadata says
which algorithm those facts unlock and at what asymptotic price, and the
pipeline applies the replacement source-to-source — then re-lints its own
output to verify no precondition was broken and nothing further remains
(idempotence).

Use :meth:`repro.analysis.AnalysisSession.optimize_source` /
``optimize_file`` programmatically, or ``python -m repro.optimize
<paths>`` (``--check`` for CI, ``--write`` to apply, ``--diff`` to
inspect).
"""

from .pipeline import (
    DEFAULT_RESOURCE,
    DEFAULT_SIZE,
    OptimizeResult,
    PlannedRewrite,
    apply_rewrites,
    plan_rewrites,
)

__all__ = [
    "DEFAULT_RESOURCE", "DEFAULT_SIZE",
    "OptimizeResult", "PlannedRewrite",
    "apply_rewrites", "plan_rewrites",
]
