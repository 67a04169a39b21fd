"""Append one benchmark round to BENCH_<UTC date>.json at the repository root.

    python3 tools/bench_append.py

Runs each workload that BENCHMARK.json lists once, as
`perfbench/run.py --workload NAME --seed 1 --seconds <run_seconds> --trace 0`,
then the tier-1 suite once with its 20 slowest tests. It appends one entry
to the day's file, a JSON list with one entry per round: the git SHA and
the SHA-256 of src/fklab/*.py, nproc and the Python and numpy versions (all
from the first run's provenance), src_dirty, each workload's end-to-end
metrics with its failed and attempted operation counts, and the tier-1 wall
time, summary line and slowest tests. src_dirty says whether src/ had
uncommitted changes when the round began: if so, git_sha names the commit
those changes sit on, not the tree measured, which src_sha256 names. The tier-1 wall time is context only, and
the entry says so: it comes from one unpaired run, and two runs of one tree
on one host have read 43.6 s and 69.1 s, so a claim on it needs alternating
parent/change pairs. A round takes about run_seconds + 20 s per workload,
plus the suite.
"""

from __future__ import annotations

import datetime
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=20", "-p", "no:cacheprovider"]
TIER1_NOTE = "wall_s is context only: one unpaired run, which cannot show a change"
# One line of pytest's --durations table: "7.21s call     tests/x.py::test_y".
DURATION = re.compile(r"(\d+\.\d+)s (setup|call|teardown) +(.+)")


def run_workload(name: str, seconds: int) -> tuple[dict, dict]:
    """The detail and the result line of one untraced perfbench run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    *_, detail, result = proc.stdout.splitlines()
    return json.loads(detail)["detail"], json.loads(result)


def run_tier1() -> dict:
    """Wall time, summary line and slowest tests of one tier-1 run."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", path])))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    return {
        "wall_s": round(wall_s, 2),
        "note": TIER1_NOTE,
        "exit_code": proc.returncode,
        "summary": lines[-1].strip("= ") if lines else "",
        "slowest": [
            {"s": float(m[1]), "when": m[2], "test": m[3]} for m in map(DURATION.fullmatch, lines) if m
        ],
    }


def src_dirty() -> bool:
    """Whether src/ has changes that are not committed."""
    argv = ["git", "status", "--porcelain", "--", "src"]
    return bool(subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip())


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    now = datetime.datetime.now(datetime.timezone.utc)
    entry = {"utc": now.isoformat(timespec="seconds"), "src_dirty": src_dirty(), "workloads": {}}
    for workload in bench["workloads"]:
        detail, result = run_workload(workload["name"], bench["run_seconds"])
        for key in ("git_sha", "src_sha256", "nproc", "python", "numpy"):
            entry.setdefault(key, detail["provenance"][key])
        entry["workloads"][workload["name"]] = {
            "runs": 1,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    entry["tier1"] = run_tier1()
    path = ROOT / f"BENCH_{now:%Y-%m-%d}.json"
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"appended entry {len(entries)} to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
