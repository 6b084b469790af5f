"""Pipeline benchmark: serve-ingest, serve-query and fleet-ingest.

Run from the repository root::

    python3 pipebench/run.py --workload serve-ingest --seed 1 --seconds 25 --trace 0
    python3 pipebench/run.py --workload all                  # every workload, one after another
    python3 pipebench/run.py --workload serve-query --repeat 5   # spread report over 5 seeds

One run measures one workload (see ``workloads.py`` and ``config.json``)
for ``--seconds`` of timed phases, checks every answer, prints each metric
with its unit and sample count, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (plus the tracing overhead).  Each run's record,
with the environment it ran on and the pinned settings, is also written to
``pipebench/_work/results/``.  The exit code is non-zero when any check
fails.  ``--repeat K`` runs the workload K times (seeds ``seed`` ..
``seed + K - 1``, each in its own process) and prints, per metric, the
median, quartiles, extremes and the quartile spread.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: A run that has not finished by then is failed, well inside the three
#: minutes a run may take.
WATCHDOG_S = 170


class WatchdogExpired(Exception):
    pass


def _on_alarm(signum, frame):
    raise WatchdogExpired(f"run exceeded {WATCHDOG_S}s")


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def single_run(args) -> int:
    common.require_source_tree()
    import workloads

    config = common.load_config()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_S)
    started = time.time()
    try:
        record = workloads.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), config)
    finally:
        signal.alarm(0)

    env = common.environment(common.WORK_DIR)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"wall={time.time() - started:.1f}s cpus={env['cpu_count']} "
          f"python={env['python']} numpy={env['numpy']} kernel={env['kernel_backend']} "
          f"store_fs={env['store_filesystem']}")
    for name, (value, unit) in record["metrics"].items():
        count = record["samples"].get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"{name:34s} {_format(value):>14s} {unit}{suffix}")
    for name, (value, unit) in record["informational"].items():
        count = record["samples"][name]
        rung = common.tail_percentile(count)
        print(f"{name:34s} {_format(value):>14s} {unit}  (n={count}; highest supported "
              f"percentile p{rung:g}; reported, not judged)")
    for name, value in record["baselines"].items():
        print(f"# baseline {name} {_format(value)} 1/s")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")

    results = common.WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "settings": config,
                   **record}, handle, indent=2, default=float)

    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))
    return 0 if record["correct"] else 1


def _child_run(workload: str, seed: int, args) -> dict | None:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = completed.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if completed.returncode != 0 or not lines:
        print(f"pipebench: {workload} seed {seed} failed (exit {completed.returncode})")
        return None
    return json.loads(lines[-1])


def spread_report(args) -> int:
    workloads = common.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for index in range(args.repeat):
            result = _child_run(workload, args.seed + index, args)
            if result is None:
                ok = False
                continue
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        if args.repeat > 1 and values:
            print(f"## {workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
            print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                  f"{'min':>12s} {'max':>12s} {'spread':>8s}")
            for name, series in values.items():
                summary = common.spread(series)
                print(f"{name:34s} {summary['median']:12.5g} {summary['q1']:12.5g} "
                      f"{summary['q3']:12.5g} {summary['min']:12.5g} {summary['max']:12.5g} "
                      f"{summary['spread']:8.3f}  {units[name]}")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (seeds seed, seed+1, ...), with a spread report")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.workload == "all" or args.repeat > 1:
        return spread_report(args)
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
