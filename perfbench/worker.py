"""One timed pass of a workload, in a fresh interpreter.

Reads ``{"root", "ops", "probes", "trace", "check"}`` as JSON on stdin
and prints one JSON line: set-up time, per-operation times, peak RSS,
one fingerprint per answer, the machine-speed samples, and, when asked,
the checker's verdicts and the tracer's aggregates.  Run by ``run.py``;
nothing here is meant to be started by hand.

Set-up is timed first, before the benchmark imports anything of its
own, so that it holds exactly what a user's fresh process pays: the
library import and the standard-library modules it pulls in.

Machine speed is sampled with a fixed loop of built-in operations,
around the import and then every 0.1 s of the pass from a SIGALRM
handler, so that samples also fall inside long operations.  Each
operation gets the harmonic mean of the samples taken during it, or of
the two nearest ones, and its time net of the samples; ``run.py`` scales
it to a reference speed.  On the shared 2-vCPU machine the benchmark was
tuned on, the same code ran up to 1.9x slower for stretches of a second
to over a minute.
"""

import gc
import sys
import time


def _speed_loop() -> int:
    """Fills a dict with tuple keys and frozenset values: small-object
    allocation and hashing, the library's own mix.  Of the loops tried
    it slowed down most like the library does when the machine does.
    Built-ins only, because it runs before the timed import."""
    table = {}
    for i in range(2000):
        table[(i % 50, i % 7, i)] = frozenset((i, i + 1))
    return len(table)


def _speed_sample() -> float:
    """Seconds taken by one run of the speed loop.  The collector is off
    meanwhile, so that the loop's allocations never start a collection
    of the library's objects; they are all freed before it is back on."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _speed_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


_speed_before = [_speed_sample() for _ in range(3)]
_t0 = time.perf_counter()
import zigzag_harmonics  # noqa: E402
import zigzag_harmonics.cli  # noqa: E402,F401
SETUP_S = time.perf_counter() - _t0
SETUP_SPEED = sum(_speed_before + [_speed_sample() for _ in range(3)]) / 6

import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEED_EVERY_S = 0.1


def _fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class SpeedSampler:
    """Runs the speed loop every SPEED_EVERY_S of wall time, from a
    SIGALRM handler, and once on entry and once on exit."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def sample(self, *_) -> None:
        start = time.perf_counter()
        self.samples.append((start, _speed_sample()))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_EVERY_S, SPEED_EVERY_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def net_times_and_speeds(self, bounds: list[tuple[float, float]]):
        """Per op: its time less the samples taken during it, and the
        harmonic mean of those samples, or of the nearest one on each side.

        Samples are evenly spaced in time, so scaling each stretch of the
        op by its own sample scales the whole by the mean of 1/sample.
        """
        starts = [start for start, _ in self.samples]
        times, speeds = [], []
        for begin, end in bounds:
            lo, hi = bisect.bisect_left(starts, begin), bisect.bisect_left(starts, end)
            inside = [d for _, d in self.samples[lo:hi]]
            around = [d for _, d in self.samples[max(lo - 1, 0):lo] + self.samples[hi:hi + 1]]
            times.append(end - begin - sum(inside))
            speeds.append(statistics.harmonic_mean(inside or around))
        return times, speeds


def _run_all(ops: list, tracer: Tracer | None):
    """Answers, and the (start, end) clock readings of each op."""
    answers, bounds = [], []
    clock = time.perf_counter
    for op in ops:
        span = tracer.begin_span(f"op.{op[0]}") if tracer else None
        start = clock()
        try:
            answer = workloads.run_op(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            answer = exc
        bounds.append((start, clock()))
        if span is not None:
            tracer.end_span(span)
        answers.append(answer)
    return answers, bounds


def _texts(ops: list, answers: list) -> list[str]:
    return [f"{checker.ERROR_PREFIX}{type(a).__name__}: {a}"[:300]
            if isinstance(a, Exception) else workloads.answer_text(op, a)
            for op, a in zip(ops, answers)]


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.join(job["root"], "src")
    if not os.path.abspath(zigzag_harmonics.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"library imported from {zigzag_harmonics.__file__}, not {src}",
              file=sys.stderr)
        return 2
    ops = job["ops"]
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
        pass_span = tracer.begin_span("pass")
    with SpeedSampler() as sampler:
        answers, bounds = _run_all(ops, tracer)
    times, speeds = sampler.net_times_and_speeds(bounds)
    if tracer:
        tracer.end_span(pass_span)
        tracer.uninstall()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    texts = _texts(ops, answers)
    result = {"setup_s": SETUP_S, "setup_speed_s": SETUP_SPEED, "op_s": times,
              "op_speed_s": speeds, "speed_s": [d for _, d in sampler.samples],
              "rss_mib": rss_mib,
              "fingerprints": [_fingerprint(t) for t in texts]}
    if tracer:
        result["aggregates"] = tracer.aggregates()
        result["spans"] = tracer.spans
    if job["check"]:
        result["verdicts"] = [checker.check(op, t) for op, t in zip(ops, texts)]
        result["value_kinds"] = [checker.value_kind(op, t) for op, t in zip(ops, texts)]
        probes = job["probes"]
        probe_answers, probe_bounds = _run_all(probes, None)
        probe_texts = _texts(probes, probe_answers)
        result["probes"] = [{"length": len(op[1]), "seconds": end - begin,
                             "raised": isinstance(a, Exception),
                             "verdict": checker.check(op, t)}
                            for op, (begin, end), a, t in zip(probes, probe_bounds,
                                                              probe_answers, probe_texts)]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
