"""Statistics, classification (Table 1), Amdahl and USL models."""

from repro.analysis.amdahl import (
    asymmetric_advantage,
    execution_time,
    speedup,
)
from repro.analysis.classify import (
    PREDICTABILITY_COV_THRESHOLD,
    SCALABILITY_R2_THRESHOLD,
    Classification,
    classify,
)
from repro.analysis.stats import (
    ScalingFit,
    Summary,
    percentile,
    scaling_fit,
    speedup_over,
    summarize,
)
from repro.analysis.usl import (
    UslFit,
    fit_usl,
    scaling_axis,
)
from repro.analysis.perf_report import (
    REPORT_FORMAT,
    build_report,
    generate_report_files,
    render_markdown,
    sweep_from_payloads,
)

__all__ = [
    "Summary",
    "summarize",
    "percentile",
    "speedup_over",
    "ScalingFit",
    "scaling_fit",
    "Classification",
    "classify",
    "PREDICTABILITY_COV_THRESHOLD",
    "SCALABILITY_R2_THRESHOLD",
    "execution_time",
    "speedup",
    "asymmetric_advantage",
    "UslFit",
    "fit_usl",
    "scaling_axis",
    "REPORT_FORMAT",
    "build_report",
    "generate_report_files",
    "render_markdown",
    "sweep_from_payloads",
]
