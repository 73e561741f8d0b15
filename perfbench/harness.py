"""Shared parts of the benchmark: ops, the closed loop, spans and statistics.

An op is a workload's unit of work.  The loop runs a workload's ops in
fixed rounds, one at a time (one closed-loop client), times each op, then
checks its output outside the timed region.  In the traced mode every call
the op makes into a qqent module goes through ``Tracer.call``, which keeps
one span per call in memory.
"""

import hashlib
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

#: Cap on the tail percentile.  Past p99 the tail of sub-millisecond ops
#: measures the host's scheduling jitter rather than the program.
TAIL_CAP = 99.0

#: Failure kinds.  ERROR: the op raised or exited with the wrong error code.
#: WRONG: the op returned an answer that failed its check; any WRONG makes a
#: run incorrect.
ERROR = "error"
WRONG = "wrong"


@dataclass
class Op:
    """One unit of work.

    ``run(tracer)`` does the timed work and returns its output; ``check(out)``
    returns None or a (kind, detail) failure; ``digest(out)`` returns the
    bytes that must repeat exactly in every round; ``replay(tracer)`` makes
    the extra per-layer calls of the traced mode, outside the op's timing.
    """

    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], Any]
    digest: Callable[[Any], bytes]
    replay: Callable[[Any], None] | None = None


class Untraced:
    """Calls straight through; used by the timed (end-to-end) runs."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """One span per call: (name, start, end, parent op id), kept in memory."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.ids = itertools.count()

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, time.perf_counter(), self.op))

    def record(self, name, start, end, parent=None):
        self.spans.append((name, start, end, parent))

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]


@dataclass
class RunResult:
    """Latencies and verdicts of every op one loop ran."""

    latencies: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (round, index, kind, failure kind, detail)
    rounds: int = 0
    digests: list = field(default_factory=list)  # first-round digest per op

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return len(self.failures)

    @property
    def correct(self):
        return not any(f[3] == WRONG for f in self.failures)

    def extend(self, other):
        self.latencies += other.latencies
        self.kinds += other.kinds
        self.failures += other.failures
        self.rounds += other.rounds


def run_rounds(ops, tracer, seconds=None, rounds=None, res=None):
    """Run whole rounds of ``ops`` until ``seconds`` have passed or ``rounds`` more are done.

    Each op is timed alone; its check, digest comparison and (traced) replay
    run after the clock stops.  Results accumulate in ``res`` (a new
    RunResult by default), whose first round sets the digests later rounds
    must repeat.  Returns ``res``.
    """
    traced = isinstance(tracer, Tracer)
    res = RunResult() if res is None else res
    stop = None if rounds is None else res.rounds + rounds
    t0 = time.perf_counter()
    while True:
        for index, op in enumerate(ops):
            if traced:
                tracer.op = next(tracer.ids)
            failure = None
            out = None
            start = time.perf_counter()
            try:
                out = op.run(tracer)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                end = time.perf_counter()
                failure = (ERROR, f"{type(exc).__name__}: {exc}")
            else:
                end = time.perf_counter()
            if traced:
                tracer.record("op." + op.kind, start, end, tracer.op)
            res.latencies.append(end - start)
            res.kinds.append(op.kind)
            if failure is None:
                try:
                    failure = op.check(out)
                except Exception as exc:  # output too malformed to check
                    failure = (WRONG, f"check raised {type(exc).__name__}: {exc}")
            if failure is None:
                digest = op.digest(out)
                if res.rounds == 0:
                    res.digests.append(digest)
                elif digest != res.digests[index]:
                    failure = (WRONG, "output differs from the first round")
            elif res.rounds == 0:
                res.digests.append(b"")
            if failure is not None:
                res.failures.append((res.rounds, index, op.kind, *failure))
            if op.replay is not None and traced:
                op.replay(tracer)
        res.rounds += 1
        if stop is not None and res.rounds >= stop:
            break
        if seconds is not None and time.perf_counter() - t0 >= seconds:
            break
    if traced:
        tracer.op = None
    return res


def tail_percentile(n):
    """Highest percentile with at least ten of ``n`` samples beyond it, capped.

    Continuous in ``n``, so a run that completes one round more or less
    moves the tail a little rather than jumping to another rung; below 20
    samples it falls back to the median.
    """
    return min(TAIL_CAP, max(50.0, 100.0 * (1.0 - 10.0 / n)))


def median(values):
    return float(np.median(values)) if len(values) else float("nan")


def digest_hex(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def floats_digest(*values):
    """Bytes of the exact repr of every float in ``values`` (arrays flattened)."""
    parts = []
    for v in values:
        arr = np.asarray(v)
        if np.iscomplexobj(arr):
            arr = np.stack([arr.real, arr.imag])
        parts.extend(repr(float(x)) for x in np.ravel(arr))
    return ",".join(parts).encode()
