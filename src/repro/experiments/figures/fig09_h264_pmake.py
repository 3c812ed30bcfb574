"""Figure 9 — H.264 encoding and PMAKE across configurations.

Both applications are stable and predictably scalable everywhere, and
both demonstrate the value of one fast core: a 1f-3s/8 machine beats
0f-4s/4 and 0f-4s/8 decisively because the fast core accelerates
serial phases and soaks up extra parallel work.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.parallel import Backend, make_backend
from repro.experiments.profiles import Profile, QUICK
from repro.experiments.report import format_sweep
from repro.experiments.runner import Runner
from repro.workloads.h264 import H264Encoder
from repro.workloads.pmake import Pmake


def run(profile: Profile = QUICK, base_seed: int = 100,
        jobs: Optional[int] = None,
        backend: Optional[Backend] = None) -> Dict:
    h264_runs = 4 if profile.name == "paper" else profile.runs
    pmake_runs = 2  # the paper shows two PMAKE runs
    backend = backend if backend is not None else make_backend(jobs)
    return {
        "h264": Runner(runs=h264_runs, base_seed=base_seed,
                       backend=backend).run(
            H264Encoder(frames=profile.h264_frames)),
        "pmake": Runner(runs=pmake_runs, base_seed=base_seed,
                        backend=backend).run(
            Pmake(n_files=profile.pmake_files)),
    }


def render(data: Dict) -> str:
    return "\n\n".join([
        "Figure 9(a) H.264 encoding runtime\n"
        + format_sweep(data["h264"], unit="s"),
        "Figure 9(b) PMAKE runtime\n"
        + format_sweep(data["pmake"], unit="s"),
    ])
