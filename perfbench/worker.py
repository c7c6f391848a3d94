"""One benchmark pass in a fresh interpreter, so the library's memo caches start cold.

    python3 perfbench/worker.py --workload NAME --seed N --pass-index J [--jobs K] [--trace]

Prints ``ready`` once the library is imported and the inputs are made, then
runs every task, timing each.  The reference loop (``calibrate.py``) runs at
checkpoints: before the first task, and after any task that ends at least
CHECKPOINT_S after the previous checkpoint.  Each task's time is scaled by
the mean of the two checkpoints around it.  After timing stops the worker
checks every result exactly and prints one JSON line: scaled pass and task
times, the reference times, peak RSS, attempted and failed counts, failure
messages, and (with --trace) the per-layer self times and counts.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import klmatroids  # noqa: E402

import workloads  # noqa: E402
from calibrate import REF_S, time_reference  # noqa: E402
from tracing import TASK, Tracer  # noqa: E402

CHECKPOINT_S = 0.25  # task time between reference loops: short enough to follow the machine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=None, help="verify's worker count")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    if Path(klmatroids.__file__).resolve().parent != ROOT / "src" / "klmatroids":
        print(f"error: imported klmatroids from {klmatroids.__file__}", file=sys.stderr)
        return 2
    make_inputs, run, check = workloads.WORKLOADS[args.workload]
    extra = {"jobs": args.jobs} if args.jobs is not None else {}
    tasks = make_inputs(args.seed, args.pass_index, **extra)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
        task_id = tracer.name_id(TASK)
    print("ready", flush=True)

    results, raw_s, task_s, errors = [], [], [], []
    reference_s = [time_reference()]
    since_checkpoint = 0.0
    for task in tasks:
        span = tracer.open(task_id) if tracer else None
        t0 = perf_counter()
        try:
            results.append((True, run(task)))
        except Exception:
            results.append((False, traceback.format_exc()))
        raw_s.append(perf_counter() - t0)
        if tracer:
            tracer.close(span)
        since_checkpoint += raw_s[-1]
        if since_checkpoint >= CHECKPOINT_S or len(raw_s) == len(tasks):
            reference_s.append(time_reference())
            scale = 2 * REF_S / (reference_s[-2] + reference_s[-1])
            task_s += [scale * s for s in raw_s[len(task_s):]]
            since_checkpoint = 0.0
    if tracer:
        tracer.uninstall()

    for task, (ran, value) in zip(tasks, results):
        if not ran:
            errors.append(f"{task!r:.80}: raised\n{value}")
            continue
        try:
            problem = check(task, value)
        except Exception:
            problem = f"{task!r:.80}: check raised\n{traceback.format_exc()}"
        if problem:
            errors.append(problem)

    out = {
        "seed": args.seed,
        "pass_index": args.pass_index,
        "wall_s": sum(task_s),
        "raw_wall_s": sum(raw_s),
        "task_s": task_s,
        "reference_s": reference_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(tasks),
        "failed": len(errors),
        "errors": errors,
    }
    if args.workload == "verify":
        out["suite_s"] = {task[0]: s for task, s in zip(tasks, task_s)}
        out["points"] = sum(r.points for ran, reports in results if ran for r in reports)
    if tracer:
        scale = REF_S / statistics.median(reference_s)
        out["layers"] = tracer.layer_metrics(sum(raw_s), scale)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
