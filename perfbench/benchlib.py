"""Arithmetic and measurement helpers shared by every workload.

Nothing here imports the program under test: the percentile rule,
failure counting, interval unions, output fingerprints and the host
speed probe are the benchmark's own code, covered by
``test_perfbench.py``.
"""

from __future__ import annotations

import hashlib
import json
import signal
import statistics
import time


# ----------------------------------------------------------------------
# summary statistics
# ----------------------------------------------------------------------
def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values, beyond: int = 10):
    """The highest percentile that still has ``beyond`` samples above
    it: ``(percentile, value)``, or None with ``beyond`` samples or
    fewer.  With n samples sorted ascending, that is the sample of rank
    ``n - beyond`` at percentile ``100 * (n - beyond) / n`` — p99 at
    exactly 1,000 samples."""
    n = len(values)
    if n <= beyond:
        return None
    rank = n - beyond
    return 100.0 * rank / n, sorted(values)[rank - 1]


def fail_frac(failed: int, attempted: int) -> float:
    """Failed operations as a share of attempted ones.  Refused and
    mismatching outputs count as failed; nothing attempted is an error,
    not a perfect score."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted


def trimmed_mean(values, trim: float = 0.1) -> float:
    """Mean of the values left after dropping ``trim`` of them at each
    end (at least one value stays)."""
    ordered = sorted(values)
    cut = min(int(len(ordered) * trim), (len(ordered) - 1) // 2)
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median, as
    ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


# ----------------------------------------------------------------------
# intervals (span self time)
# ----------------------------------------------------------------------
def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.
    Overlapping intervals (children on different threads) count once."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered(children, start, end)


# ----------------------------------------------------------------------
# output fingerprints
# ----------------------------------------------------------------------
def digest(material) -> str:
    """Stable short digest of JSON-able output material."""
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def tune_fingerprint(configuration_names, final_cost: float) -> str:
    """Tunes and jobs: sorted configuration names plus ``repr`` of the
    final cost."""
    return digest([sorted(configuration_names), repr(final_cost)])


class Checker:
    """Counts operations and compares each output's fingerprint with the
    recorded one.  In recording mode it collects fingerprints instead."""

    def __init__(self, recorded: dict, record: bool = False) -> None:
        self.recorded = recorded
        self.record = record
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, key: str, fingerprint: str | None) -> bool:
        """One operation's verdict; ``fingerprint=None`` is a failed
        operation (error or refusal)."""
        self.attempted += 1
        ok = fingerprint is not None
        if ok and self.record:
            previous = self.seen.setdefault(key, fingerprint)
            ok = previous == fingerprint
        elif ok:
            ok = self.recorded.get(key) == fingerprint
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(
                    f"{key}: got {fingerprint}, "
                    f"recorded {self.recorded.get(key)}"
                )
        return ok

    def fail(self, reason: str) -> None:
        """A failed check that is not one operation (e.g. identity)."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(reason)


# ----------------------------------------------------------------------
# host speed probe
# ----------------------------------------------------------------------
#: iterations of the probe loop; about 2 ms on a 2 GHz Xeon vCPU.
PROBE_ITERATIONS = 20_000
#: the probe's duration at the reference speed all normalized times are
#: expressed in (the fastest state of the 2-vCPU Xeon the benchmark was
#: tuned on).
PROBE_REFERENCE_S = 0.0019


def _probe_loop(n: int = PROBE_ITERATIONS) -> int:
    """Fixed bytecode work.  A variant that also read 12 MB of scattered
    objects, to follow memory contention too, steadied the size
    estimator no better and the tuner worse."""
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


class HostClock:
    """Wall clock corrected for the speed of a shared host.

    On a shared machine the same interpreter work runs up to 40% slower
    for seconds at a time, with CPU time inflating as much as wall time.
    A fixed probe loop, fired by ``SIGALRM`` every ``period`` seconds on
    the main thread, samples that speed *during* each operation;
    :meth:`normalize` removes the probes' own time from an interval and
    rescales the rest to the reference speed.  The probe costs about 2%
    of the run.
    """

    def __init__(self, period: float = 0.1) -> None:
        self.period = period
        self.samples: list[tuple[float, float]] = []  # (start, wall)
        self._busy = False
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            _probe_loop()
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            self._busy = False

    def start(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def speed(self, t0: float, t1: float, min_samples: int = 9) -> float:
        """Mean probe duration around ``[t0, t1]`` (middle 80%, so a
        probe that waited for the interpreter lock does not count),
        widening the window until it holds ``min_samples`` probes."""
        samples = self.samples
        pad = 0.0
        while True:
            window = [w for s, w in samples if t0 - pad <= s <= t1 + pad]
            if len(window) >= min_samples or pad > 30.0:
                break
            pad = pad * 2 or self.period * min_samples / 2
        if not window:
            return PROBE_REFERENCE_S
        return trimmed_mean(window)

    def stall(self, t0: float, t1: float) -> float:
        """Probe time spent inside ``[t0, t1]``."""
        return sum(
            min(s + w, t1) - max(s, t0)
            for s, w in self.samples if s < t1 and s + w > t0
        )

    def normalize(self, t0: float, t1: float) -> float:
        """``[t0, t1]`` minus probe time, at the reference speed."""
        work = max(0.0, (t1 - t0) - self.stall(t0, t1))
        return work * PROBE_REFERENCE_S / self.speed(t0, t1)
