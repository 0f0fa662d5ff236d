"""Summary statistics and host-speed scaling shared by the runner, the
worker and the benchmark's tests."""

from __future__ import annotations

import math
import statistics
import threading
import time


def quartiles(values):
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values, beyond=10):
    """Highest integer percentile with at least `beyond` samples above it.

    Uses the nearest-rank definition: percentile P is the sample at rank
    ceil(P/100 * N) of the sorted list.  Returns (value, P, N).  Raises
    ValueError when fewer than `beyond` + 1 samples exist, since then no
    percentile leaves enough samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= beyond:
            return ordered[rank - 1], pct, n
    raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")


def harrell_davis(values, p):
    """Harrell-Davis estimate of quantile `p`: the mean of all order
    statistics, the i-th of n weighted by the Beta(p(n+1), (1-p)(n+1))
    probability of [(i-1)/n, i/n].

    Where the samples near the quantile are sparse, a single order statistic
    jumps whenever two codes swap ranks; this average over the neighbouring
    ranks moves smoothly instead.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    if a <= 1 or b <= 1:
        raise ValueError(f"{n} samples are too few to estimate quantile {p}")
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 32  # Simpson's rule on each [(i-1)/n, i/n]
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        lo = i / n
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density((i + 1) / n)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


# -- host speed ----------------------------------------------------------------
#
# The host's CPU is shared, and its speed drifts by up to twice over tens of
# seconds, so raw seconds measure the neighbours as much as the program.  A
# thread in the worker times a fixed probe (a small rref over GF(251) in pure
# Python, the program's kind of work) a few times a second, by its own CPU
# clock.  A time measured over [start, end] is scaled by PROBE_REF_S over the
# mean probe time near that interval: seconds at the reference speed.

_P = 251
_INV = [0] + [pow(x, _P - 2, _P) for x in range(1, _P)]
_BASE = [[pow(i + 2, j, _P) for j in range(12)] for i in range(8)]
PROBE_ROUNDS = 20
# Median of 4,394 probe times over the runs that sized the benchmark (2 of
# the cores of a shared Intel Xeon at 2.1 GHz, Python 3.11.7), so that
# reference seconds are about what that host gives at its usual load.
PROBE_REF_S = 0.0030
PROBE_EVERY_S = 0.2
# Probes up to this far outside an interval also count for it, so that a
# code shorter than PROBE_EVERY_S still gets several.
PROBE_MARGIN_S = 3.0


def probe(rounds=PROBE_ROUNDS):
    """Fixed work: row-reduce a fixed 8 x 12 matrix over GF(251) `rounds`
    times.  Returns the summed ranks, 8 per round."""
    total = 0
    for r in range(rounds):
        m = [[(x + r) % _P for x in row] for row in _BASE]
        rank = 0
        for col in range(12):
            piv = next((i for i in range(rank, 8) if m[i][col]), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            inv = _INV[m[rank][col]]
            m[rank] = [x * inv % _P for x in m[rank]]
            pivot_row = m[rank]
            for i in range(8):
                f = m[i][col]
                if i != rank and f:
                    m[i] = [(a - f * b) % _P for a, b in zip(m[i], pivot_row)]
            rank += 1
            if rank == 8:
                break
        total += rank
    return total


class HostProbe:
    """Times `probe()` every PROBE_EVERY_S on a thread of its own, from
    `with HostProbe() as hp:` until the block ends.

    Each sample is (perf_counter at its middle, thread CPU seconds).  Thread
    CPU time leaves out the waits for the interpreter lock, so the program's
    own thread does not inflate it; it still grows when a neighbour slows the
    core.  The program loses about 1 % of its time to the probe, the same
    share for every version of it.
    """

    def __init__(self):
        self.samples = []
        self.wrong = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-probe", daemon=True)

    def _run(self):
        while not self._stop.wait(PROBE_EVERY_S):
            begin, cpu = time.perf_counter(), time.thread_time()
            self.wrong |= probe() != 8 * PROBE_ROUNDS
            cpu = time.thread_time() - cpu
            self.samples.append(((begin + time.perf_counter()) / 2, cpu))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if self.wrong:
            raise RuntimeError("the host probe computed a wrong rank")


def speed_scale(samples, start, end, margin=PROBE_MARGIN_S):
    """PROBE_REF_S over the mean probe time within `margin` of [start, end];
    all samples count when none is that close.  Multiplying a time measured
    over [start, end] by it gives reference seconds.

    The mean, not the median: probes come at even intervals, so their mean
    time is the time-average slowdown, which is what stretches the measured
    interval, short slow bursts included.
    """
    near = [cpu for at, cpu in samples if start - margin <= at <= end + margin]
    if not near:
        near = [cpu for _, cpu in samples]
    if not near:
        raise ValueError("no host probe samples")
    return PROBE_REF_S / statistics.fmean(near)
