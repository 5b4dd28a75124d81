"""Host-speed probe: fixed kernels that use no fdikit code.

The hosts this benchmark runs on are shared, and their speed swings by
20-35% for seconds to minutes at a time, so a whole run can fall in a slow
stretch.  ``probe()`` times fixed kernels and returns how slow the host is
right now, as a ratio to a reference speed.  It runs before every op and
around every setup import, and ``run.py`` divides each measured time by
the mean slowness just before and just after it: end-to-end times are
reported at the reference host speed.

There are two kernels, since fdikit's work is of two kinds: one makes
small objects, dicts, a sort and float formatting; the other makes small
numpy calls and 8x8 eigenvalue problems.  Over 6 minutes on the reference
host, the pure Python kernel alone left a drift of 0.08 (interquartile
range over median, 60 s windows) in the scaled time of the
``eigen_box_rayleigh`` op; with both kernels it was 0.02-0.03 for every op
type tried.  Since the kernels run no fdikit code, a change to fdikit
moves the reported times but not the probe.
"""

import gc
from time import perf_counter

# Only built-in modules are imported at module level: the setup
# interpreters probe before they import fdikit (with ``numpy=False``), and
# must not load any module that fdikit would load.

#: Median time of each kernel at the reference host speed: a 2-core Xeon
#: (KVM, Python 3.11.7, numpy 2.4.6, one BLAS thread) in a fast stretch.
PYTHON_REF_S = 0.0018
NUMPY_REF_S = 0.0009

_GRID = [i / 599 for i in range(600)]


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _python_kernel():
    t0 = perf_counter()
    pairs = [_Pair(i, float(i)) for i in range(4000)]
    table = {i: (p.a, p.b) for i, p in enumerate(pairs)}
    sorted(table.values(), key=lambda t: -t[1])
    ",".join(f"{x:.6g}" for x in _GRID)
    return perf_counter() - t0


def _numpy_kernel(np, a):
    t0 = perf_counter()
    v = np.arange(64.0)
    for _ in range(200):
        v = v * 0.5 + 1.0
    for _ in range(25):
        np.linalg.eigvals(a)
    return perf_counter() - t0


def _median3(kernel, *args):
    return sorted(kernel(*args) for _ in range(3))[1]


def probe(numpy=True) -> float:
    """Slowness of the host now: 1.0 at the reference speed, 1.2 when the
    kernels take 20% longer.  With ``numpy``, the mean over both kernels.

    The collector is off meanwhile (the kernels make no cycles): with it
    on, a worker holding many objects made the Python kernel 60% slower,
    which would tie the probe to how much memory fdikit keeps.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        slowness = _median3(_python_kernel) / PYTHON_REF_S
        if numpy:
            import numpy as np

            a = np.random.default_rng(0).standard_normal((8, 8))
            slowness = (slowness + _median3(_numpy_kernel, np, a) / NUMPY_REF_S) / 2
        return slowness
    finally:
        if enabled:
            gc.enable()
