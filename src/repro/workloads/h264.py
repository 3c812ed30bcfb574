"""Multithreaded H.264 encoder model (paper §3.6).

Structure from the paper (and its references [2, 10]):

* five concurrent threads: a main thread doing sequential image
  pre-processing and post-processing (2-5% of CPU time) plus four
  encoder threads;
* the frame is divided into macro-blocks; a macro-block can be encoded
  only after its spatially adjacent neighbours (left, and upper row)
  are done — the classic wavefront dependence;
* encoder threads *grab* ready macro-blocks dynamically, so work flows
  to whichever cores make progress — the structural reason the
  application is stable and scalable under asymmetry, and why "some
  performance asymmetry is good": the fast core both accelerates the
  serial pre/post phases and absorbs more macro-blocks.

The wavefront also explains the paper's observation that one slow core
hurts (4f-0s → 3f-1s/8): at each frame's start and end the wavefront
is narrow, so a critical-path macro-block held by a slow core stalls
the other encoders.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

from repro._system import System
from repro.kernel.instructions import Acquire, Compute
from repro.kernel.sync import Semaphore
from repro.workloads.base import Workload


class _FrameWavefront:
    """Dependency tracker for one frame's macro-block grid.

    Macro-block (r, c) becomes ready when its left neighbour (r, c-1)
    and its upper-right neighbour (r-1, c+1) are encoded (the H.264
    deblocking/intra-prediction dependence; the upper and upper-left
    blocks are transitively covered).
    """

    def __init__(self, rows: int, cols: int) -> None:
        self.rows = rows
        self.cols = cols
        self.remaining = rows * cols
        self._deps: Dict[Tuple[int, int], int] = {}
        self.ready: Deque[Tuple[int, int]] = deque()
        for r in range(rows):
            for c in range(cols):
                count = (1 if c > 0 else 0)
                if r > 0:
                    count += 1
                self._deps[(r, c)] = count
        self.ready.append((0, 0))

    def complete(self, block: Tuple[int, int]) -> list:
        """Mark a block done; return newly ready blocks."""
        self.remaining -= 1
        r, c = block
        released = []
        # Right neighbour loses its "left" dependency.
        if c + 1 < self.cols:
            released.extend(self._release((r, c + 1)))
        # The block below-left (r+1, c-1) loses its upper-right
        # dependency; at the right edge the block below does.
        if r + 1 < self.rows:
            lower = (r + 1, c - 1) if c > 0 else None
            if c == self.cols - 1:
                # Last column also unblocks the block directly below
                # (it has no upper-right neighbour inside the frame).
                released.extend(self._release((r + 1, c)))
            if lower is not None and c - 1 >= 0:
                released.extend(self._release(lower))
        return released

    def _release(self, block: Tuple[int, int]) -> list:
        self._deps[block] -= 1
        if self._deps[block] == 0:
            return [block]
        return []


class H264Encoder(Workload):
    """The multithreaded encoder as a workload.

    Parameters
    ----------
    frames:
        Frames to encode.
    """

    name = "H.264"
    primary_metric = "runtime"
    higher_is_better = False
    #: Macro-block grid (24 x 33 = 4CIF-class resolution; a wide grid
    #: keeps the wavefront broad, which is what gives the real encoder
    #: its "abundant parallelism").
    mb_rows = 24
    mb_cols = 33
    #: Mean encode cost per macro-block (motion estimation + mode
    #: decision), jittered per block by ``mb_jitter``.
    mb_cycles = 1.0e6
    mb_jitter = 0.10
    #: Serial main-thread share of each frame's work (the paper's 2-5%
    #: combined).
    pre_fraction = 0.015
    post_fraction = 0.025
    #: Worker threads grabbing macro-blocks (paper uses four plus the
    #: main thread).
    encoder_threads = 4

    def __init__(self, frames: int = 6) -> None:
        if frames < 1:
            raise ValueError("need at least one frame")
        self.frames = frames

    # ------------------------------------------------------------------
    def simulate(self, system: System) -> Dict[str, float]:
        rng = system.sim.stream("h264.encode")
        frame_work = self.mb_rows * self.mb_cols * self.mb_cycles
        pre_cycles = frame_work * self.pre_fraction
        post_cycles = frame_work * self.post_fraction

        state = {"wavefront": None}
        ready_gate = Semaphore(0, name="h264-ready")
        frame_done = Semaphore(0, name="h264-frame")

        def encoder_body():
            while True:
                yield Acquire(ready_gate)
                wavefront = state["wavefront"]
                if wavefront is None or not wavefront.ready:
                    continue
                block = wavefront.ready.popleft()
                yield Compute(rng.jitter(self.mb_cycles, self.mb_jitter))
                for released in wavefront.complete(block):
                    wavefront.ready.append(released)
                    system.kernel.semaphore_release(ready_gate)
                if wavefront.remaining == 0:
                    system.kernel.semaphore_release(frame_done)

        def start_frame():
            state["wavefront"] = _FrameWavefront(self.mb_rows,
                                                 self.mb_cols)
            system.kernel.semaphore_release(ready_gate)

        def main_body():
            # Temporal parallelism (paper §3.6): the main thread's
            # pre-processing of frame k+1 and post-processing of frame
            # k overlap the encoding of frames k and k+1 respectively,
            # keeping the 2-5% serial share off the critical path.
            yield Compute(pre_cycles)  # frame 0 prepared up front
            start_frame()
            for frame in range(self.frames):
                if frame + 1 < self.frames:
                    # Prepare the next frame while this one encodes.
                    yield Compute(pre_cycles)
                yield Acquire(frame_done)
                if frame + 1 < self.frames:
                    start_frame()
                # Post-processing (bitstream, reconstruction) of the
                # finished frame; overlaps the next frame's encoding.
                yield Compute(post_cycles)

        for worker in range(self.encoder_threads):
            system.kernel.start(f"h264-enc{worker}", encoder_body(),
                                daemon=True)
        system.kernel.start("h264-main", main_body())
        system.run()
        return {
            "runtime": system.now,
            "frames_per_second": self.frames / system.now,
        }
