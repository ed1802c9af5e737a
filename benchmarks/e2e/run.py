"""End-to-end CAC benchmark: seeded workloads, checked outputs, layer trace.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--repeats N | --seconds S] [--trace {0,1}] [--size N]
        [--src DIR] [--results PATH]

Each repeat runs one workload in a fresh single-threaded worker process
(``worker.py``); workers run one at a time, round-robin across the
selected workloads, so host drift spreads evenly over them.  With
``--seconds S`` rounds continue while another fits into ``S`` seconds
per workload (at least two, so set-up time is a median); otherwise
``--repeats`` rounds run.  Unless ``--trace 0`` is given, one traced
repeat per workload follows and records the per-layer breakdown.

Every repeat's outputs are checked (see ``README.md``); a failed check
is named on stderr and the run exits 1 without printing metrics.
Otherwise every metric is printed by name with its unit, one record is
appended to ``--results`` (default ``results.jsonl`` next to this
file), and the last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``, both by default).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

import measure

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Per workload: the default repeat size and, for that size (and seed,
#: where the workload has one), the expected digest.
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
SCHEMA = 1
#: Rounds a ``--seconds`` run makes at least: set-up time is a median,
#: and on a host running at half speed a third round would overrun.
MIN_ROUNDS = 2
#: A worker that has not finished by then is killed.
WORKER_TIMEOUT_S = 170

#: How each end-to-end metric comes from the workers' raw samples:
#: ``(key, percentile)`` pools the repeats' lists, ``(key, None)`` takes
#: the median of the one value each repeat reports.
END_TO_END = {
    "events_per_s": ("rates", 50),
    "setup_p50_us": ("latency_us", 50),
    "setup_p90_us": ("latency_us", 90),
    "setup_s": ("setup_s", None),
    "peak_rss_mb": ("rss_mb", None),
}


class WorkerError(RuntimeError):
    """A worker process crashed or timed out."""


def spawn(src: pathlib.Path, name: str, seed: int, size: int,
          trace_out: Optional[pathlib.Path] = None) -> dict:
    """Run one repeat in a fresh worker; its JSON result."""
    command = [sys.executable, str(HERE / "worker.py"), "--src", str(src),
               "--workload", name, "--seed", str(seed), "--size", str(size)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    # One thread per worker: the numbers must not depend on how many
    # cores a BLAS pool happens to grab.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              env=env, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{name}: worker timed out") from None
    if done.returncode != 0:
        raise WorkerError(f"{name}: worker exited {done.returncode}\n"
                          f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(repeats: List[dict]) -> Dict[str, dict]:
    """Every end-to-end metric: value, quartiles and per-repeat samples."""
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    metrics = {}
    for name, (key, q) in END_TO_END.items():
        if q is None:
            samples = [r[key] for r in repeats]
            value = measure.quartiles(samples)[1]
        else:
            samples = [measure.percentile(r[key], q) for r in repeats]
            value = measure.percentile(
                [x for r in repeats for x in r[key]], q)
        metrics[name] = {"value": value, "unit": units[name],
                         **measure.summary(samples)}
    return metrics


def per_layer(traced: dict, events_per_s: float) -> Dict[str, dict]:
    """Every per-layer metric of the traced repeat."""
    layers = dict(traced["layers"])
    traced_rate = (traced["done"] / (layers["trace.root_ms"] / 1e3)
                   * traced["host_factor"])
    layers["trace.overhead"] = events_per_s / traced_rate
    return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in SPEC["per_layer"]}


def problems(name: str, seed: int, size: int,
             results: List[dict]) -> List[str]:
    """Failed correctness checks of one workload's repeats, by name."""
    failed = sorted({f"{name}: {check}" for r in results
                     for check, ok in r["checks"].items() if not ok})
    digests = {r["digest"] for r in results}
    if len(digests) > 1:
        failed.append(f"{name}: digest differs between repeats")
    expected = WORKLOADS[name]
    if expected["size"] == size and expected.get("seed", seed) == seed \
            and digests != {expected["digest"]}:
        failed.append(f"{name}: digest differs from workloads.json")
    return failed


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def record(args, sizes: Dict[str, int], rounds: int,
           numpy_version: Optional[str], workloads: Dict[str, dict]) -> dict:
    commit = _git("rev-parse", "HEAD")
    return {
        "schema": SCHEMA,
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "commit": commit,
        "dirty": None if commit is None else bool(
            _git("status", "--porcelain", "--untracked-files=no")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": args.seed,
        "repeats": rounds,
        "seconds": args.seconds,
        "sizes": sizes,
        "workloads": workloads,
    }


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repeats per workload (default 5)")
    parser.add_argument("--seconds", type=int,
                        help="time budget per workload instead of --repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed repeats only; 1: print only the "
                        "per-layer metrics (default: run and print both)")
    parser.add_argument("--size", type=int,
                        help="repeat size: churn events, or Figure 10 "
                        "rows (default: each workload's own)")
    parser.add_argument("--src", type=pathlib.Path, default=ROOT / "src",
                        help="source tree to import repro from")
    parser.add_argument("--results", type=pathlib.Path,
                        default=HERE / "results.jsonl")
    args = parser.parse_args(argv)
    for option in ("repeats", "seconds", "size"):
        if getattr(args, option) is not None and getattr(args, option) < 1:
            parser.error(f"--{option} must be at least 1")
    args.workload = args.workload or names
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if not (args.src / "repro" / "__init__.py").is_file():
        print(f"no repro package under {args.src}", file=sys.stderr)
        return 2
    sizes = {name: args.size or WORKLOADS[name]["size"]
             for name in args.workload}
    timed: Dict[str, List[dict]] = {name: [] for name in args.workload}
    traced: Dict[str, dict] = {}
    budget = (args.seconds or 0) * len(args.workload)
    started = time.perf_counter()
    rounds = 0
    try:
        while True:
            round_started = time.perf_counter()
            for name in args.workload:
                timed[name].append(spawn(args.src, name, args.seed,
                                         sizes[name]))
            rounds += 1
            now = time.perf_counter()
            if args.seconds is None:
                if rounds >= args.repeats:
                    break
            elif rounds >= MIN_ROUNDS and \
                    now - started + (now - round_started) > budget:
                break
        if args.trace != 0:
            traces = HERE / "traces"
            traces.mkdir(exist_ok=True)
            for name in args.workload:
                traced[name] = spawn(args.src, name, args.seed, sizes[name],
                                     traces / f"{name}.jsonl")
    except WorkerError as error:
        print(error, file=sys.stderr)
        return 1

    failed_checks = [
        problem for name in args.workload
        for problem in problems(name, args.seed, sizes[name],
                                timed[name] + ([traced[name]]
                                               if name in traced else []))]
    if failed_checks:
        for problem in failed_checks:
            print(f"correctness check failed: {problem}", file=sys.stderr)
        return 1

    workloads: Dict[str, dict] = {}
    for name in args.workload:
        entry = {"digest": timed[name][0]["digest"],
                 "host_factor": [r["host_factor"] for r in timed[name]],
                 "end_to_end": end_to_end(timed[name])}
        if name in traced:
            entry["per_layer"] = per_layer(
                traced[name], entry["end_to_end"]["events_per_s"]["value"])
        workloads[name] = entry
    numpy_version = timed[args.workload[0]][0]["numpy"]
    with open(args.results, "a") as out:
        out.write(json.dumps(record(args, sizes, rounds, numpy_version,
                                    workloads)) + "\n")

    shown = {0: ("end_to_end",), 1: ("per_layer",)}.get(
        args.trace, ("end_to_end", "per_layer"))
    metrics = {}
    for name, entry in workloads.items():
        for group in shown:
            for metric, data in entry[group].items():
                spread = (f"  q1 {data['q1']:.6g}  q3 {data['q3']:.6g}  "
                          f"n={len(data['samples'])}"
                          if "samples" in data else "")
                print(f"{name:12} {metric:34} {data['value']:14.6g} "
                      f"{data['unit']:6}{spread}")
                key = metric if len(workloads) == 1 else f"{name}/{metric}"
                metrics[key] = {"value": data["value"], "unit": data["unit"]}
    repeats = [r for name in args.workload for r in timed[name]]
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in repeats),
        "failed": sum(r["failed"] for r in repeats),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
