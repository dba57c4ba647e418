"""tqftdims benchmark runner: closed loop, one client, one child at a time.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Each pass runs the workload's op list once in a fresh interpreter, so the
program's caches start cold, as they do for every command-line call.
Expected values come from a separate oracle process run first.  The last
line of stdout is the result: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
The line before it is a report with the seed, the drawn inputs, provenance
and the per-pass figures.

With ``--trace 1`` untraced and traced passes alternate; per-layer figures
are medians over the traced passes and ``trace.overhead_ratio`` compares the
two kinds.  End-to-end figures always come from untraced passes.

Times are calibrated: a pass's wall time is multiplied by ``REF_S`` over
the harmonic mean of a fixed reference loop's times, sampled every 0.1 s
inside the same child (see ``child.py``).  On a shared host the CPU speed
drifts by 1.5x and more over seconds to minutes; the calibrated time is what
the pass would take on a host where the reference loop takes ``REF_S``.  Raw
times are in the report line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import harmonic_mean, median

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The reference loop's fastest time on a quiet 2-core x86-64 host, Python 3.11.
REF_S = 0.0006
#: Set-up-only children started before the passes; each pass adds one more
#: set-up sample.
SETUP_PROBES = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 150


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child(job: dict) -> tuple[dict, float]:
    """Run one child; return its report and the parent's clock at its start."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=env, text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"{job['mode']} child exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise HarnessError(f"{job['mode']} child exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out), started


def expected_values(ops: list[dict]) -> list:
    report, _ = _child({"mode": "oracle", "ops": ops})
    return report["expected"]


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "loadavg_at_start": os.getloadavg(),
    }


def measure(ops: list[dict], expected: list, seconds: float, trace: bool) -> dict:
    """Run passes for about ``seconds`` and check every op of every pass."""
    window_start = time.monotonic()
    setup = []

    def add_setup(report: dict, started: float) -> None:
        setup.append((report["setup_done"] - started) * REF_S / report["setup_ref_s"])

    for _ in range(SETUP_PROBES):
        add_setup(*_child({"mode": "setup"}))
    passes = {False: [], True: []}
    mismatches = []
    attempted = failed = 0
    while True:
        traced = trace and len(passes[True]) < len(passes[False])
        t0 = time.monotonic()
        report, started = _child({"mode": "pass", "ops": ops, "trace": traced})
        report["child_s"] = time.monotonic() - t0
        report["cal_s"] = report["wall_s"] * REF_S / harmonic_mean(report.pop("ref_s"))
        add_setup(report, started)
        passes[traced].append(report)
        for i, (got, want) in enumerate(zip(report.pop("observed"), expected)):
            attempted += 1
            if got != want:
                failed += 1
                if len(mismatches) < 5:
                    mismatches.append({"op": ops[i], "got": got, "want": want})
        enough = len(passes[False]) >= MIN_PASSES and (
            not trace or len(passes[True]) >= MIN_TRACED_PASSES
        )
        longest = max(r["child_s"] for r in passes[False] + passes[True])
        if enough and time.monotonic() - window_start + longest > seconds:
            break
    return {
        "setup": setup,
        "untraced": passes[False],
        "traced": passes[True],
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
    }


def end_to_end_metrics(m: dict) -> dict:
    return {
        "setup_s": {"value": median(m["setup"]), "unit": "s"},
        "wall_s": {"value": median(r["cal_s"] for r in m["untraced"]), "unit": "s"},
        "peak_rss_mb": {"value": median(r["peak_rss_mb"] for r in m["untraced"]), "unit": "MB"},
    }


def _calibrated(per_layer: dict, scale: float, units: dict) -> dict:
    """Rescale a traced pass's times (unit s) and rates (unit 1/s)."""
    factor = {"s": scale, "1/s": 1 / scale}
    return {k: v * factor.get(units[k], 1.0) for k, v in per_layer.items()}


def per_layer_metrics(m: dict) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {e["name"]: e["unit"] for e in spec["per_layer"]}
    traced = [_calibrated(r["per_layer"], r["cal_s"] / r["wall_s"], units) for r in m["traced"]]
    out = {name: {"value": median(t[name] for t in traced), "unit": units[name]}
           for name in traced[0]}
    ratio = median(r["cal_s"] for r in m["traced"]) / median(r["cal_s"] for r in m["untraced"])
    out["trace.overhead_ratio"] = {"value": ratio - 1.0, "unit": units["trace.overhead_ratio"]}
    return out


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  small: bool = False) -> tuple[dict, dict]:
    """Return (report, result) for one run."""
    prov = provenance()
    ops = workloads.generate(workload, seed, small)
    expected = expected_values(ops)
    m = measure(ops, expected, seconds, trace)
    metrics = per_layer_metrics(m) if trace else end_to_end_metrics(m)
    result = {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }
    report = {
        "workload": workload,
        "seed": seed,
        "ops": ops,
        "provenance": prov,
        "failed_ratio": m["failed"] / m["attempted"],
        "mismatches": m["mismatches"],
        "setup_s": m["setup"],
        "passes": [
            {k: r[k] for k in ("cal_s", "wall_s", "op_s", "peak_rss_mb", "child_s")}
            | {"traced": traced}
            for traced in (False, True) for r in m["traced" if traced else "untraced"]
        ],
    }
    if trace:
        report["spans_first_traced_pass"] = m["traced"][0]["spans"]
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tqftdims" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'tqftdims'}", file=sys.stderr)
        return 2
    try:
        report, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
