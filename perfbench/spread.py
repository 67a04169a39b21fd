"""Run one workload on several seeds and print each metric's quartile spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S] [--trace 0|1]

For each metric: the median of the per-run values and the distance between
their first and third quartile as a share of that median (the steadiness
figure the end-to-end bounds in BENCHMARK.json are set against), next to the
metric's bound. --seconds defaults to BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    ok = True
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.splitlines()[-1])
        ok &= result["correct"]
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for name, vals in values.items():
        median = statistics.median(vals)
        spread = stats.quartile_spread(vals) if len(vals) > 1 and median else float("nan")
        bound = bounds.get(name)
        print(f"{args.workload} {name}: median {median:.6g} spread {spread:.4f}"
              + (f" bound {bound} ({spread / bound:.2f} of it)" if bound else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
