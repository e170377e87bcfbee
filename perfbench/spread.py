"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workloads cli-pipeline --seeds 1-10

Runs the benchmark once per (workload, seed), one run at a time, and prints
for each metric the median and the interquartile range as a share of the
median (statistics.quantiles, n=4), next to the metric's bound. Raw results
are appended to .bench_out/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spec import END_TO_END, RUN_SECONDS, WORKLOADS  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    args = parser.parse_args()

    root = HERE.parent
    log = root / ".bench_out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in END_TO_END}
        for seed in args.seeds:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", "0"], cwd=root, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            ok &= result["correct"]
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            for name in END_TO_END:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({len(values['setup_s'])} seeds)")
        for name, (unit, _better, bound) in END_TO_END.items():
            if len(values[name]) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median
            flag = "" if spread < bound / 3 else ("  above bound/3" if spread <= bound
                                                  else "  ABOVE BOUND")
            print(f"  {name:12s} median {median:10.5g} {unit:6s} spread {spread:6.3f} "
                  f"bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
