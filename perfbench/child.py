"""One cold interpreter: import the program, then run one job from stdin.

Jobs (a JSON object on stdin):

* ``{"mode": "setup"}``: report only when ``import tqftdims.cli`` finished;
* ``{"mode": "oracle", "ops": [...]}``: the expected value of every op;
* ``{"mode": "pass", "ops": [...], "trace": bool}``: run the ops once, in
  order, timing each; with ``trace`` the package is wrapped by the tracer
  first and the per-layer metrics are reported too.

The report is one JSON object on stdout.  ``setup_done`` is a
``time.monotonic()`` reading, comparable with the parent's clock.

Every job also times a fixed reference loop right after the import, and a
pass times it again from a timer signal every ``SAMPLE_EVERY_S`` seconds,
inside the ops, so run.py can rescale pass times to a fixed host speed.  The
time spent in those samples is taken out of the op times.
"""

import sys
import time

import tqftdims.cli  # noqa: F401  (the import is the set-up being timed)

SETUP_DONE = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from math import gcd  # noqa: E402
from pathlib import Path  # noqa: E402

import ops  # noqa: E402

SAMPLE_EVERY_S = 0.1
_KEYS = {i: i * 7919 for i in range(512)}


def _reference_loop() -> None:
    """About a millisecond of big-int arithmetic and dict lookups, the core
    of the program's Fraction work.  It never touches the program and makes
    no object the garbage collector tracks, so running it in the middle of
    an op adds no collection work to the op."""
    s = 0
    a = 12345678910111213
    for i in range(1500):
        x = a * (i + 3) + _KEYS[i & 511]
        s += (x // gcd(x, 3 * i + 7)) % 1000003


def reference_s() -> float:
    t0 = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples ``reference_s()`` from a SIGALRM timer while a pass runs, so
    the host speed is known during long ops too, not only between them.
    With a tracer, each sample is a harness span, so no layer is charged."""

    def __init__(self, tracer=None) -> None:
        self.samples = [reference_s()]
        self.spent_s = 0.0
        self.tracer = tracer

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        with self.tracer.span("harness.probe") if self.tracer else contextlib.nullcontext():
            self.samples.append(reference_s())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(op_list: list[dict], trace: bool) -> dict:
    tracer = tally = None
    if trace:
        import layers  # only traced passes pay for the tracer's imports

        tracer, tally = layers.new_tracer()
        tracer.install("tqftdims")
        tracer.active = True
    clock = time.perf_counter
    results, op_s = [], []
    with SpeedProbe(tracer) as probe:
        for op in op_list:
            t0, probed0 = clock(), probe.spent_s
            try:
                if tracer is None:
                    results.append(ops.run(op))
                else:
                    name = layers.STREAM_OP if op["fn"] == "cli.census_list" else layers.HARNESS_OP
                    with tracer.span(name):
                        results.append(ops.run(op))
            except Exception as exc:  # an op that raises is a failed op, not a harness fault
                results.append(exc)
            op_s.append(clock() - t0 - (probe.spent_s - probed0))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = sum(op_s)
    report = {
        "wall_s": wall,
        "op_s": op_s,
        "ref_s": probe.samples,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        tracer.active = False
        out_bytes = sum(getattr(r, "nbytes", 0) for r in results)  # CLI sinks only
        summary = tracer.summary(layers.SCOPES)
        traced_wall = wall + probe.spent_s  # spans include the probe's samples
        report["per_layer"] = layers.per_layer_metrics(tracer, summary, tally, traced_wall, out_bytes)
        report["spans"] = {
            name: {"calls": tracer.call_count(name), "total_s": total,
                   "self_s": summary["self_by_name"][name]}
            for name, total in summary["dur_by_name"].items()
        }
    report["observed"] = [_observe(op, r) for op, r in zip(op_list, results)]
    return report


def _observe(op: dict, result):
    if isinstance(result, Exception):
        return {"error": repr(result)}
    try:
        return ops.observe(op, result)
    except Exception as exc:  # a result of the wrong shape is a failed op
        return {"error": repr(exc)}


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(tqftdims.__file__).resolve().is_relative_to(src):
        print(f"tqftdims was imported from {tqftdims.__file__}, not from {src}", file=sys.stderr)
        return 2
    setup_ref_s = statistics.median(reference_s() for _ in range(9))
    job = json.load(sys.stdin)
    report = {"setup_done": SETUP_DONE, "setup_ref_s": setup_ref_s}
    if job["mode"] == "oracle":
        report["expected"] = [ops.expect(op) for op in job["ops"]]
    elif job["mode"] == "pass":
        report.update(run_pass(job["ops"], job["trace"]))
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
