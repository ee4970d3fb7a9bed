"""Host-speed calibration of the timed end-to-end metrics.

Two kinds of noise on a shared host move raw wall times by more than a
regression bound.  Other processes take turns on the same CPUs, so a call
waits while it is switched out.  And the host itself runs up to about 25%
faster or slower for seconds to minutes at a time.

Against the first, the end-to-end metrics time the worker's CPU time
(``time.process_time``), which excludes time spent switched out.  The
worker runs one thread, so on an idle core this equals its wall time.

Against the second, a workload runs a fixed chunk of numpy and Python work
between its timed pieces: between suites on the verify workloads, between
rounds of the call mix on ``library_calls``.  Each timed piece is then
scaled by ``REF_S / c``, where ``c`` is the mean CPU time of the chunks
just before and after it.  A set-up worker runs two chunks right after its
set-up and scales it by their mean.  A scaled time is the time the piece
would take on a host where one chunk takes ``REF_S`` seconds.

The chunk does not use tmlab, so a change to tmlab changes the scaled
times in the same proportion as the raw ones.  Its work is of the kind
tmlab does at the workload's sizes: Hermitian eigendecompositions, a
Python call per eigenvalue, rebuilds and eigenvalue checks.  Raw times are
kept in the result file beside the scaled ones.

    python3 perfbench/calibrate.py    # median chunk time per workload

prints the median chunk times that ``REF_S`` was set from.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Matrix sizes and matrices per chunk, per workload and for set-up.  A verify chunk takes
# about 40 ms, against about 0.4 s (D=4) and 0.7 s (D=64) per suite; a
# library chunk takes about 6 ms, against about 30 ms per round of calls.
CHUNKS = {
    "verify_d4": {"dims": (4,), "ops": 800},
    "verify_d64": {"dims": (64,), "ops": 24},
    "library_calls": {"dims": (4, 16, 64), "ops": 9},
    "setup": {"dims": (4,), "ops": 800},
}
# Typical chunk CPU time per key on a shared 2-CPU VM (python3 calibrate.py).
# It only sets the scale of the reported times: any fixed value would do.
REF_S = {"verify_d4": 0.0365, "verify_d64": 0.0371, "library_calls": 0.00513, "setup": 0.0365}
POOL = 8  # distinct matrices per size


class Chunk:
    """A fixed chunk of work; ``time()`` runs it once and returns its CPU seconds."""

    def __init__(self, workload: str):
        spec = CHUNKS[workload]
        rng = np.random.default_rng(0)
        self.ref_s = REF_S[workload]
        self.ops = spec["ops"]
        self.mats = []
        for _ in range(POOL):
            for d in spec["dims"]:
                g = rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d))
                self.mats.append(g.conj().T @ g / (2 * d))

    def _work(self) -> float:
        acc = 0.0
        for k in range(self.ops):
            a = self.mats[k % len(self.mats)]
            w, v = np.linalg.eigh(a)
            root = np.array([math.sqrt(x) for x in w])
            b = (v * root) @ v.conj().T
            acc += float(np.linalg.eigvalsh(b @ b - a)[-1])
        return acc

    def time(self) -> float:
        t0 = time.process_time()
        self._work()
        return time.process_time() - t0

    def scale(self, before: float, after: float) -> float:
        """Factor that turns a raw time taken between two chunks into a scaled time."""
        return self.ref_s / ((before + after) / 2.0)


def main() -> None:
    for workload in CHUNKS:
        chunk = Chunk(workload)
        chunk.time()
        times = [chunk.time() for _ in range(50)]
        q = statistics.quantiles(times, n=4)
        print(f"{workload:<14} median {statistics.median(times):.6f} s  quartiles {q[0]:.6f} {q[2]:.6f}")


if __name__ == "__main__":
    main()
