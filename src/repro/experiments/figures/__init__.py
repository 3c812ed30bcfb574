"""One module per paper exhibit.

Each module exposes ``run(profile, backend=...) -> data`` and
``render(data) -> str``.  ``render(run(...))`` is the only way an
exhibit becomes text: ``python -m repro <exhibit>`` prints it and
``tests/golden/exhibit_<exhibit>.txt`` pins it at the quick profile.
See DESIGN.md's per-experiment index for the mapping to the paper's
figures and tables.
"""

from repro.experiments.figures import (  # noqa: F401
    fig01_specjbb_predictability,
    fig02_specjbb_scalability,
    fig03_jappserver,
    fig04_tpch,
    fig05_tpch_tuning,
    fig06_apache,
    fig07_zeus,
    fig08_specomp,
    fig09_h264_pmake,
    fig10_summary,
    fig11_dynamic_asym,
    fig12_locks,
    fig13_omp_scheduling,
    table1_summary,
)

ALL_EXHIBITS = {
    "fig01": fig01_specjbb_predictability,
    "fig02": fig02_specjbb_scalability,
    "fig03": fig03_jappserver,
    "fig04": fig04_tpch,
    "fig05": fig05_tpch_tuning,
    "fig06": fig06_apache,
    "fig07": fig07_zeus,
    "fig08": fig08_specomp,
    "fig09": fig09_h264_pmake,
    "fig10": fig10_summary,
    "fig11": fig11_dynamic_asym,
    "fig12": fig12_locks,
    "fig13": fig13_omp_scheduling,
    "table1": table1_summary,
}

__all__ = ["ALL_EXHIBITS"]
