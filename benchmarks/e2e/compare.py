"""Compare two benchmark results, or run an A/B of two sides.

    python3 benchmarks/e2e/compare.py [BASE [HEAD]]
    python3 benchmarks/e2e/compare.py --ab SIDE_A SIDE_B [--workload NAME ...]
        [--pairs N] [--seed N]

Record mode compares two records of a ``results.jsonl`` file, each given
as ``PATH[@INDEX]`` (default: the last two records of ``results.jsonl``
next to this file); the samples compared are each record's per-repeat
values.

``--ab`` runs the benchmark on two sides, where a side is a source
tree (a checkout root holding ``src/``, or a ``src/`` directory) or an
environment assignment such as ``CAC_FAST_PATH=off`` applied to this
checkout.  ``--pairs`` pairs run (at least 10 for a gain), alternating
which side goes first, each run the length ``BENCHMARK.json`` sets.

Each metric of each workload gets a verdict under the rule in
``measure.verdict`` -- gain, regression (against the metric's bound in
``BENCHMARK.json``), unresolved (spread wider than the bound) or
unchanged -- and the output has one row per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

import measure
from run import HERE, ROOT, SPEC

METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def load_record(spec: str) -> dict:
    """The record ``PATH[@INDEX]`` names (index defaults to the last)."""
    path, _, index = spec.partition("@")
    records = [json.loads(line) for line in
               pathlib.Path(path).read_text().splitlines() if line.strip()]
    return records[int(index) if index else -1]


def side(spec: str) -> Tuple[pathlib.Path, Dict[str, str]]:
    """``(src directory, extra environment)`` of one A/B side."""
    if "=" in spec and not os.path.exists(spec):
        name, _, value = spec.partition("=")
        return ROOT / "src", {name: value}
    tree = pathlib.Path(spec).resolve()
    return (tree / "src" if (tree / "src").is_dir() else tree), {}


def run_side(src: pathlib.Path, env: Dict[str, str], args,
             results: pathlib.Path) -> dict:
    """One benchmark run on one side; the record it appended."""
    command = [sys.executable, str(HERE / "run.py"), "--trace", "0",
               "--seed", str(args.seed),
               "--seconds", str(SPEC["run_seconds"]),
               "--src", str(src), "--results", str(results)]
    for name in args.workload or ():
        command += ["--workload", name]
    done = subprocess.run(command, env=dict(os.environ, **env),
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"benchmark run failed:\n{done.stderr[-2000:]}")
    return load_record(str(results))


def table(verdicts: Dict[str, Dict[str, Tuple[str, float]]]) -> str:
    """One row per workload, one ``verdict change%`` cell per metric."""
    names = list(METRICS)
    lines = ["workload".ljust(14) + "".join(n.ljust(24) for n in names)]
    for workload, cells in verdicts.items():
        lines.append(workload.ljust(14) + "".join(
            (f"{cells[n][0]} {cells[n][1]:+.1%}" if n in cells else "-")
            .ljust(24) for n in names))
    return "\n".join(lines)


def judge(base: Dict[str, Dict[str, List[float]]],
          head: Dict[str, Dict[str, List[float]]],
          paired: bool) -> Tuple[Dict[str, Dict[str, Tuple[str, float]]],
                                 List[str]]:
    """Verdicts and a detail line per workload and metric.

    ``base``/``head`` map workload -> metric -> samples; ``paired``
    says the i-th samples of both sides form one A/B pair.
    """
    verdicts: Dict[str, Dict[str, Tuple[str, float]]] = {}
    details = []
    for workload in base:
        if workload not in head:
            continue
        verdicts[workload] = {}
        for name, metric in METRICS.items():
            a, b = base[workload][name], head[workload][name]
            pairs = list(zip(a, b)) if paired else None
            result = measure.verdict(a, b, metric["better"], metric["bound"],
                                     pairs)
            a1, am, a3 = measure.quartiles(a)
            b1, bm, b3 = measure.quartiles(b)
            verdicts[workload][name] = (result, (bm - am) / am)
            wins = ""
            if pairs:
                sign = 1 if metric["better"] == "higher" else -1
                won = sum(1 for x, y in pairs if sign * (y - x) > 0)
                wins = f"  head won {won}/{len(pairs)} pairs"
            details.append(
                f"{workload:12} {name:14} base {am:.6g} [{a1:.6g}, {a3:.6g}]"
                f"  head {bm:.6g} [{b1:.6g}, {b3:.6g}] {metric['unit']}"
                f"{wins}  -> {result}")
    return verdicts, details


def samples_of(record: dict) -> Dict[str, Dict[str, List[float]]]:
    return {workload: {name: entry["end_to_end"][name]["samples"]
                       for name in METRICS}
            for workload, entry in record["workloads"].items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("records", nargs="*", metavar="PATH[@INDEX]")
    parser.add_argument("--ab", nargs=2, metavar=("SIDE_A", "SIDE_B"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--pairs", type=int, default=measure.MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    if args.ab:
        sides = [side(spec) for spec in args.ab]
        runs: List[List[dict]] = [[], []]
        with tempfile.TemporaryDirectory() as scratch:
            results = pathlib.Path(scratch) / "results.jsonl"
            for pair in range(args.pairs):
                order = (0, 1) if pair % 2 == 0 else (1, 0)
                for index in order:
                    runs[index].append(run_side(*sides[index], args, results))
        base, head = ({workload: {name: [r["workloads"][workload]
                                         ["end_to_end"][name]["value"]
                                         for r in side_runs]
                                  for name in METRICS}
                       for workload in side_runs[0]["workloads"]}
                      for side_runs in runs)
        verdicts, details = judge(base, head, paired=True)
    else:
        default = str(HERE / "results.jsonl")
        specs = args.records or [f"{default}@-2", f"{default}@-1"]
        if len(specs) != 2:
            parser.error("record mode compares exactly two records")
        base_record, head_record = (load_record(spec) for spec in specs)
        verdicts, details = judge(samples_of(base_record),
                                  samples_of(head_record), paired=False)
    print(table(verdicts))
    print()
    print("\n".join(details))
    return 0


if __name__ == "__main__":
    sys.exit(main())
