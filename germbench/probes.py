"""Host probe and layer microbenchmarks on fixed inputs.

``probe_work`` runs no germkit code: a fixed loop of ``Fraction``
arithmetic, the operation germkit spends most of its time on.
The host's speed drifts by up to a factor of two, from one second to the
next and in phases that last minutes (see README.md).  ``HostSampler`` runs
the probe from a timer signal every ``PROBE_PERIOD_S`` in the benchmark's
own thread, so it samples the same vCPU at the same time as the job it
interrupts; run.py removes the probes' time from each job and divides the
rest by the probe's mean over the job (``HostSampler.normalise``).

The microbenchmarks time one layer each on inputs that do not depend on
the seed: ``Scalar`` multiply-add, ``rref`` of a fixed h9 differential and
``TensorDgla.bracket11`` on a fixed pair of L8 x gl2 degree-one elements.
They import germkit when called, so they use the modules of the latest
set-up.
"""

from __future__ import annotations

import contextlib
import gc
from array import array
import signal
import time
from fractions import Fraction
from statistics import fmean, median

import inputs

REPEATS = 5


# Seconds one probe takes on a 2.0 GHz Xeon core in the host's fast phase
# (its fastest time there): the unit that host-normalised times are in.
PROBE_REFERENCE_S = 0.002
PROBE_PERIOD_S = 0.1  # a probe every 0.1 s: about 3 % of the run
PROBE_WINDOW_S = 1.0  # shorter sections take the mean probe over this window
PROBE_CAPACITY = 6000  # samples kept: ten minutes


def probe_work() -> None:
    """A fixed loop of Fraction products and sums.

    No dict: a dict table is big enough to come from malloc, and one
    allocated in the middle of germkit's work moved peak RSS by up to 2 MB
    from run to run.
    """
    acc = Fraction(0)
    for i in range(1, 401):
        acc = acc + Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, 7)
        if i % 8 == 0:
            acc = Fraction(0)


def host_probe() -> float:
    """Median seconds of 30 probes in a row."""
    times = []
    for _ in range(30):
        start = time.perf_counter()
        probe_work()
        times.append(time.perf_counter() - start)
    return median(times)


class HostSampler:
    """``probe_work`` from SIGALRM every PROBE_PERIOD_S, while ``installed()``.

    Each sample is (start, wall seconds, CPU seconds) on ``time.monotonic``.
    The collector is off during a probe, so the probe never pays for a
    collection of germkit's heap.  Samples go into a buffer allocated up
    front and become tuples on exit: tuples kept from each probe, scattered
    between germkit's objects, moved peak RSS by about 1 MB from run to run.
    """

    def __init__(self):
        self._log = array("d", bytes(8 * 3 * PROBE_CAPACITY))
        self._count = 0
        self.samples: list[tuple[float, float, float]] = []

    def _probe(self, signum, frame) -> None:
        if self._count == PROBE_CAPACITY:
            return
        collecting = gc.isenabled()
        gc.disable()
        start, cpu = time.monotonic(), time.process_time()
        probe_work()
        i = 3 * self._count
        self._log[i] = start
        self._log[i + 1] = time.monotonic() - start
        self._log[i + 2] = time.process_time() - cpu
        self._count += 1
        if collecting:
            gc.enable()

    @contextlib.contextmanager
    def installed(self):
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            log = self._log
            self.samples = [tuple(log[i:i + 3]) for i in range(0, 3 * self._count, 3)]

    def normalise(self, seconds: float, start: float, end: float, cpu: bool = False) -> float:
        """``seconds`` (wall, or CPU if ``cpu``) measured over [start, end], in reference seconds.

        The probes inside [start, end] are taken out of ``seconds``, and the
        rest is divided by the mean probe over [start, end], widened to
        PROBE_WINDOW_S around its middle when shorter.  The mean, not the
        median: the job paid for the slow stretches too.
        """
        k = 2 if cpu else 1
        own = sum(sample[k] for sample in self.samples if start <= sample[0] <= end)
        pad = max(0.0, PROBE_WINDOW_S - (end - start)) / 2
        window = [sample[k] for sample in self.samples if start - pad <= sample[0] <= end + pad]
        if not window:  # no signal got through: a long call outside Python
            middle = (start + end) / 2
            window = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[k]]
        return (seconds - own) * PROBE_REFERENCE_S / fmean(window)


def _median_time(fn) -> float:
    """Median seconds of ``fn()`` over REPEATS calls."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times)


def muladd_ns() -> float:
    """Nanoseconds per ``a*b + a`` on two small Q scalars."""
    from germkit.scalars import Scalar

    a = Scalar(Fraction(3, 7))
    b = Scalar(Fraction(-5, 11))
    n = 20000

    def loop():
        for _ in range(n):
            a * b + a

    return _median_time(loop) / n * 1e9


def rref_fixed_ms() -> float:
    """Milliseconds for ``rref`` of d: C^3 -> C^4 of the unit h9 (126 x 84)."""
    from germkit import linalg
    from germkit.cedga import Dga
    from germkit.formats import parse_algebra_dict

    algebra = parse_algebra_dict(inputs.heisenberg(4, None)).algebra
    matrix = Dga(algebra).d[3]
    ncols = len(matrix[0])
    return _median_time(lambda: linalg.rref(matrix, ncols)) * 1e3


def bracket11_fixed_us() -> float:
    """Microseconds per ``bracket11`` of two phi_1 values on the unit L8 x gl2.

    The harmonic one-forms of L8 are e^1 and e^2 (monomial indices 0 and 1),
    so u and v are phi_1 = sum t_i zeta_i at two fixed points t.
    """
    from germkit.cedga import Dga
    from germkit.fixtures import gl
    from germkit.formats import parse_algebra_dict
    from germkit.kuranishi import TensorDgla
    from germkit.scalars import scalar

    algebra = parse_algebra_dict(inputs.filiform(8, None)).algebra
    tdgla = TensorDgla(Dga(algebra), gl(2))
    u = {tdgla.flat(h, a): scalar(Fraction(1 + a, 1 + h)) for h in (0, 1) for a in range(4)}
    v = {tdgla.flat(h, a): scalar(Fraction(3 - 2 * a, 2 + h)) for h in (0, 1) for a in range(4)}
    n = 200

    def loop():
        for _ in range(n):
            tdgla.bracket11(u, v)

    return _median_time(loop) / n * 1e6

