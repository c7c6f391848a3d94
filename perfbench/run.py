"""Benchmark for klmatroids: four workloads, each driving one layer of the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One closed-loop client runs passes of the
workload's tasks, each pass in a fresh interpreter (``worker.py``), until S
seconds have gone by; between passes it times the matching ``klm`` command
until its first output line.  Every result is checked exactly.  Every time
is scaled by a reference loop timed next to it (``calibrate.py``), so that
the machine's own drifts in speed cancel; the unscaled pass time is printed
too.  ``workloads`` imports the library, so it is imported only once the
sources are known to be there.

With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics, from
traced passes alternating with untraced passes on the same inputs.  Names
and units come from BENCHMARK.json.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from calibrate import REF_S, time_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
MIN_PASSES = 5  # enough task times for the tail rule
MIN_TRACED = 3  # traced passes: counts repeat exactly, times need only a median
# A run ends once its measured time, scaled by the reference loop, reaches
# --seconds: the number of passes, and so the percentile behind task_tail_ms,
# then follows the library's speed and not the machine's.  Real time is
# capped at SLOWEST times --seconds when the machine is very slow.
SLOWEST = 1.5
PROBES_PER_PASS = 3  # probes are short, so more of them per pass steady their median
STOP_AFTER_S = 130  # stop starting passes after this long, whatever else holds
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run: a missing checkout, a crash, a timeout."""


# -- statistics -----------------------------------------------------------------


def tail_percentile(samples: list[float], beyond: int = 10) -> tuple[int, float]:
    """The highest whole percentile with at least ``beyond`` samples above it
    (nearest rank), and its value.  With too few samples, (100, the maximum)."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


# -- child processes ----------------------------------------------------------------


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def _spawn(cmd: list[str]) -> tuple[float, str, str, int]:
    """Run cmd; return (seconds until its first stdout line, that line, the
    rest of stdout, exit code).  A child still running after CHILD_TIMEOUT_S
    is killed, and the run fails."""
    start = perf_counter()
    # Its own process group, so that killing it also ends any sweep workers.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT, start_new_session=True
    )

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(CHILD_TIMEOUT_S, kill_group)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        until_first = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    except BaseException:  # interrupted or terminated: leave no child behind
        kill_group()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if code == -signal.SIGKILL:
        raise BenchError(f"killed after {CHILD_TIMEOUT_S} s: {' '.join(cmd)}")
    return until_first, first, rest, code


def run_pass(workload: str, seed: int, pass_index: int, jobs: int | None, trace: bool):
    """One pass in a fresh interpreter: (setup seconds, the worker's report)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--pass-index", str(pass_index)]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    if trace:
        cmd.append("--trace")
    setup_s, first, rest, code = _spawn(cmd)
    if code != 0 or first.strip() != "ready":
        raise BenchError(f"worker exited with {code} ({first.strip()!r}): {' '.join(cmd)}")
    report = json.loads(rest.strip().splitlines()[-1])
    for problem in report["errors"]:
        print(f"FAILED [{workload} seed={seed} pass={pass_index}] {problem}", file=sys.stderr)
    return setup_s, report


def run_probe(workload: str) -> tuple[float, str | None]:
    """Time `python -m klmatroids.cli ...` until its first line, scaled by
    reference loops run just before and after it; check its output."""
    import workloads

    argv, check = workloads.PROBES[workload]
    cmd = [sys.executable, "-m", "klmatroids.cli", *argv]
    before = time_reference()
    until_first, first, rest, code = _spawn(cmd)
    after = time_reference()
    lines = (first + rest).splitlines()
    problem = f"`klm {' '.join(argv)}` exited with {code}" if code else check(lines)
    if problem:
        print(f"FAILED [{workload} probe] {problem}", file=sys.stderr)
    return 2 * REF_S * until_first / (before + after), problem


# -- the two kinds of run ---------------------------------------------------------------


def done(start: float, measured: float, seconds: float, passes: int, least: int) -> bool:
    elapsed = perf_counter() - start
    if elapsed > STOP_AFTER_S:
        return True
    return passes >= least and (measured >= seconds or elapsed >= SLOWEST * seconds)


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    """End-to-end metrics, attempted and failed, from untraced passes and probes."""
    setups, walls, rss, tasks, firsts, raw_walls, references = [], [], [], [], [], [], []
    attempted = failed = 0
    measured = 0.0
    start = perf_counter()
    pass_index = 0
    while True:
        setup_s, report = run_pass(workload, seed, pass_index, None, False)
        pass_index += 1
        setups.append(REF_S * setup_s / report["reference_s"][0])
        walls.append(report["wall_s"])
        measured += setups[-1] + walls[-1]
        raw_walls.append(report["raw_wall_s"])
        references.extend(report["reference_s"])
        rss.append(report["rss_mb"])
        tasks.extend(report["task_s"])
        attempted += report["attempted"]
        failed += report["failed"]
        for _ in range(PROBES_PER_PASS):
            first_s, problem = run_probe(workload)
            firsts.append(first_s)
            measured += first_s
            attempted += 1
            failed += problem is not None
        if done(start, measured, seconds, pass_index, MIN_PASSES):
            break
    percentile, tail = tail_percentile(tasks)
    print(
        f"{workload}: seed {seed}, {pass_index} passes, {len(tasks)} tasks, "
        f"{len(firsts)} probes; task_tail_ms is p{percentile} of {len(tasks)} samples; "
        f"fail_ratio {failed}/{attempted}; unscaled wall_s {statistics.median(raw_walls):.4f} "
        f"with the reference loop at {statistics.median(references):.5f} s (REF_S {REF_S})"
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "task_p50_ms": 1e3 * statistics.median(tasks),
        "task_tail_ms": 1e3 * tail,
        "first_output_s": statistics.median(firsts),
    }
    return metrics, attempted, failed


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    """Per-layer metrics: traced and untraced passes alternate on the inputs of
    pass 0, so counts repeat exactly and the wall-time difference is the
    tracing overhead."""
    import workloads

    jobs = 1 if workload == "verify" else None
    if jobs:
        print("note: traced verify passes run with jobs=1 (spans in worker processes "
              "would be lost); its untraced passes here use jobs=1 too")
    plain, traced = [], []
    attempted = failed = 0
    measured = 0.0
    start = perf_counter()
    while True:
        for bucket, trace in ((plain, False), (traced, True)):
            _, report = run_pass(workload, seed, 0, jobs, trace)
            bucket.append(report)
            measured += report["wall_s"]
            attempted += report["attempted"]
            failed += report["failed"]
        if done(start, measured, seconds, len(traced), MIN_TRACED):
            break
    layers = [r["layers"] for r in traced]
    metrics = {}
    for key, first in layers[0].items():
        if isinstance(first, int):
            if any(other[key] != first for other in layers[1:]):
                print(f"warning: count {key} differs between traced passes", file=sys.stderr)
            metrics[key] = first
        else:
            metrics[key] = statistics.median(other[key] for other in layers)
    metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in plain)
    # Each traced pass runs right after its untraced twin; differencing within
    # a pair cancels most of the machine's slow drifts in speed.
    metrics["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)
    )
    for suite, _ in workloads.VERIFY_SUITES:
        metrics[f"verification.{suite}.wall_s"] = statistics.median(
            r.get("suite_s", {}).get(suite, 0.0) for r in plain
        )
    metrics["verification.points"] = plain[0].get("points", 0)
    print(
        f"{workload}: seed {seed}, {len(traced)} traced and {len(plain)} untraced passes; "
        f"fail_ratio {failed}/{attempted}"
    )
    return metrics, attempted, failed


# -- entry point ---------------------------------------------------------------------------


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["oracle", "enumerate", "table", "verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    try:
        if not (ROOT / "src" / "klmatroids" / "__init__.py").is_file():
            raise BenchError(f"no klmatroids sources under {ROOT / 'src'}")
        if not compileall.compile_dir(ROOT / "src", quiet=1):
            raise BenchError("the klmatroids sources do not compile")
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        declared = declared_metrics(bool(args.trace))
        run = measure_traced if args.trace else measure
        values, attempted, failed = run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"error: no value measured for {missing}", file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
