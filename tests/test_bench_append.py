"""tools/bench_append.py, with the perfbench and tier-1 runs faked."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_append.py"
PROVENANCE = {"git_sha": "abc123", "src_sha256": "def456", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}
TIER1_OUT = """\
.....                                                                    [100%]
============================= slowest 20 durations =============================
7.21s call     tests/test_acceptance.py::test_criterion_3
0.50s setup    tests/test_cli.py::test_run_unusable_out_exit_2[existing file]

(3 durations < 0.005s hidden.  Use -vv to show these durations.)
1885 passed in 43.74s
"""


def _load():
    spec = importlib.util.spec_from_file_location("bench_append", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_append_writes_one_entry_per_round(tmp_path, monkeypatch):
    bench_append = _load()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 50, "workloads": [{"name": "honest-4x4"}, {"name": "certify-4x5"}]}
    ))
    calls = []

    def fake_run(argv, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 0, "", "")
        calls.append(argv[1:])
        if "perfbench/run.py" in argv:
            name = argv[argv.index("--workload") + 1]
            result = {"correct": True, "attempted": 2, "failed": 0,
                      "metrics": {"wall_s": {"value": len(name), "unit": "s"}}}
            detail = {"detail": {"provenance": PROVENANCE}}
            stdout = f"wall_s 1 s\n{json.dumps(detail)}\n{json.dumps(result)}\n"
        else:
            stdout = TIER1_OUT
        return subprocess.CompletedProcess(argv, 0, stdout, "")

    monkeypatch.setattr(bench_append, "ROOT", tmp_path)
    monkeypatch.setattr(bench_append.subprocess, "run", fake_run)
    assert bench_append.main() == 0
    assert bench_append.main() == 0

    assert calls[0] == [
        "perfbench/run.py", "--workload", "honest-4x4", "--seed", "1", "--seconds", "50", "--trace", "0"
    ]
    assert calls[2][:2] == ["-m", "pytest"]
    (path,) = tmp_path.glob("BENCH_*.json")
    entries = json.loads(path.read_text())
    assert len(entries) == 2
    entry = entries[0]
    assert {key: entry[key] for key in PROVENANCE} == PROVENANCE
    assert entry["src_dirty"] is False
    assert entry["workloads"]["certify-4x5"] == {
        "runs": 1, "attempted": 2, "failed": 0, "metrics": {"wall_s": {"value": 11, "unit": "s"}}
    }
    assert entry["tier1"]["summary"] == "1885 passed in 43.74s"
    assert entry["tier1"]["note"] == "wall_s is context only: one unpaired run, which cannot show a change"
    assert entry["tier1"]["exit_code"] == 0
    assert entry["tier1"]["slowest"] == [
        {"s": 7.21, "when": "call", "test": "tests/test_acceptance.py::test_criterion_3"},
        {"s": 0.5, "when": "setup", "test": "tests/test_cli.py::test_run_unusable_out_exit_2[existing file]"},
    ]


@pytest.mark.parametrize("porcelain, dirty", [("", False), (" M src/fklab/cli.py\n?? src/fklab/new.py\n", True)],
                         ids=["clean", "dirty"])
def test_bench_append_records_uncommitted_src_changes(tmp_path, monkeypatch, porcelain, dirty):
    bench_append = _load()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 5, "workloads": [{"name": "honest-4x4"}]}))
    git_calls = []

    def fake_run(argv, **kwargs):
        if argv[0] == "git":
            git_calls.append((argv, kwargs["cwd"]))
            return subprocess.CompletedProcess(argv, 0, porcelain, "")
        if "perfbench/run.py" in argv:
            result = {"attempted": 1, "failed": 0, "metrics": {}}
            stdout = f"{json.dumps({'detail': {'provenance': PROVENANCE}})}\n{json.dumps(result)}\n"
        else:
            stdout = TIER1_OUT
        return subprocess.CompletedProcess(argv, 0, stdout, "")

    monkeypatch.setattr(bench_append, "ROOT", tmp_path)
    monkeypatch.setattr(bench_append.subprocess, "run", fake_run)
    assert bench_append.main() == 0
    assert git_calls == [(["git", "status", "--porcelain", "--", "src"], tmp_path)]
    (path,) = tmp_path.glob("BENCH_*.json")
    (entry,) = json.loads(path.read_text())
    assert entry["src_dirty"] is dirty
