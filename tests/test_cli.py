"""End-to-end command-line tests: files, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from fklab import analysis, cli, prover
from fklab.cli import main
from fklab.errors import CapacityError
from fklab.lattice import InputSpec, InputType
from fklab.prover import ideal_history_state
from fklab.simulator import FORMAT_BLOCK
from fklab.verifier import MAX_COPIES, run_protocol

SRC = str(Path(cli.__file__).resolve().parents[1])


def write_config(path, **overrides):
    config = {
        "lattice": {"rows": 2, "cols": 2},
        "input_seed": 5,
        "prover": {"type": "honest", "noise": {"theta": 0.2}},
        "protocol": {
            "num_copies": 20_000,
            "master_seed": 90210,
            "threshold_o10": 0.9,
            "threshold_fin": 0.9,
            "psamp_window": [0.45, 0.55],
        },
        "repetitions": 2,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return config


def test_cli_import_leaves_the_thread_pool_out():
    # Only a multi-threaded run makes a pool, so the thread-pool module (and
    # the logging it pulls in) is imported there, not by every command.
    code = "import sys, fklab.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_run_writes_expected_files(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()
    for rep in range(2):
        report = json.loads((out / f"report_rep{rep:03d}.json").read_text())
        assert set(report) >= {"f_in_m", "p_samp_m", "o10_re", "o10_im", "o10_sq_scaled", "accepted"}
        samples = (out / f"samples_rep{rep:03d}.txt").read_text().splitlines()
        assert samples and all(len(s) == 4 for s in samples)
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("rep,seed,accepted")
    assert len(summary) == 3


def test_run_sample_file_is_the_per_bit_formatting(tmp_path, monkeypatch):
    """More than FORMAT_BLOCK samples: the file is every sample's bits, qubit
    0 first, one per line, byte for byte."""
    reports = []

    def spy(*args, **kwargs):
        transcript, report = run_protocol(*args, **kwargs)
        reports.append(report)
        return transcript, report

    monkeypatch.setattr(cli, "run_protocol", spy)
    cfg = tmp_path / "config.json"
    write_config(cfg, lattice={"rows": 3, "cols": 3}, repetitions=1, protocol={
        "num_copies": 300_000, "master_seed": 11, "threshold_o10": 0.5,
        "threshold_fin": 0.5, "psamp_window": [0.3, 0.7],
    })
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    samples = reports[0].samples.tolist()
    assert len(samples) > FORMAT_BLOCK
    expected = "".join(
        "".join("1" if (z >> k) & 1 else "0" for k in range(9)) + "\n" for z in samples
    )
    assert (out / "samples_rep000.txt").read_bytes() == expected.encode("ascii")


def test_run_transcript_flag(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(cfg, repetitions=1, protocol={
        "num_copies": 500, "master_seed": 4, "threshold_o10": 0.5,
        "threshold_fin": 0.5, "psamp_window": [0.3, 0.7],
    })
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--transcript"]) == 0
    lines = (out / "transcript_rep000.jsonl").read_text().splitlines()
    assert len(lines) == 500
    record = json.loads(lines[0])
    assert set(record) == {
        "copy_index", "b_sampling", "b_testtype", "basis_choice",
        "clock_outcome", "system_outcomes", "u",
    }


def test_run_is_byte_deterministic(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("summary.csv", "report_rep000.json", "report_rep001.json", "samples_rep000.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_thread_count_invariance(tmp_path, monkeypatch):
    cfg = tmp_path / "config.json"
    write_config(cfg, repetitions=1, protocol={
        "num_copies": 200_000, "master_seed": 11, "threshold_o10": 0.9,
        "threshold_fin": 0.9, "psamp_window": [0.45, 0.55],
    })
    out1, out8 = tmp_path / "t1", tmp_path / "t8"
    monkeypatch.setenv("FKLAB_THREADS", "1")
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    monkeypatch.setenv("FKLAB_THREADS", "8")
    assert main(["run", "--config", str(cfg), "--out", str(out8)]) == 0
    assert (out1 / "report_rep000.json").read_bytes() == (out8 / "report_rep000.json").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out8 / "summary.csv").read_bytes()


def test_run_seed_override_changes_results(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(cfg, repetitions=1)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "777"]) == 0
    assert (out1 / "report_rep000.json").read_bytes() != (out2 / "report_rep000.json").read_bytes()


@pytest.mark.parametrize("num_copies", [0, 1])
def test_run_report_names_why_it_is_undefined(tmp_path, capsys, num_copies):
    # A starved run rejects, and its report says which branch ran dry.
    cfg = tmp_path / "config.json"
    write_config(cfg, repetitions=1, protocol={"num_copies": num_copies, "master_seed": 3})
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert "accepted=False" in capsys.readouterr().out
    report = json.loads((out / "report_rep000.json").read_text())
    counters = report["counters"]
    assert report["accepted"] is False
    starved = {
        "no X-propagation copies": counters["n_x"] == 0,
        "no Y-propagation copies": counters["n_y"] == 0,
        "no clock +1 input-test copies": counters["n_in_plus"] == 0,
        "no input-test copies": counters["n_in_plus"] + counters["n_clock_minus"] == 0,
    }
    assert report["undefined_reason"] == "; ".join(r for r, dry in starved.items() if dry)
    assert sum(starved.values()) >= 3


def test_run_degraded_prover_config(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(
        cfg,
        repetitions=1,
        prover={"type": "degraded", "target_o10_sq": 0.97, "target_f_in": 1.0},
        protocol={
            "num_copies": 100_000, "master_seed": 6,
            "threshold_o10": 0.994, "threshold_fin": 0.994,
            "psamp_window": [0.494, 0.506],
        },
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report_rep000.json").read_text())
    assert report["accepted"] is False


def full_budget_protocol(seed):
    return {
        "num_copies": 3_500_000,
        "master_seed": seed,
        "threshold_o10": 0.994,
        "threshold_fin": 0.994,
        "psamp_window": [0.494, 0.506],
    }


def summary_accept_count(out_dir):
    rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
    return sum(int(row.split(",")[2]) for row in rows)


def test_run_perfect_prover_twenty_reps(tmp_path):
    # Full copy budget on the small lattice: essentially certain acceptance.
    cfg = tmp_path / "config.json"
    write_config(
        cfg,
        repetitions=20,
        prover={"type": "honest"},
        protocol=full_budget_protocol(424242),
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert summary_accept_count(out) >= 19


def test_run_tuned_overlap_prover_twenty_reps(tmp_path):
    # Exact propagation overlap 0.999: at least a 2/3 accept fraction.
    cfg = tmp_path / "config.json"
    write_config(
        cfg,
        repetitions=20,
        prover={"type": "degraded", "target_o10_sq": 0.999, "target_f_in": 1.0},
        protocol=full_budget_protocol(515151),
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert summary_accept_count(out) >= 14


def test_run_missing_field_exit_2(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"lattice": {"rows": 2, "cols": 2}}))
    assert main(["run", "--config", str(cfg)]) == 2


def test_run_invalid_json_exit_2(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text("{not json")
    assert main(["run", "--config", str(cfg)]) == 2


def test_run_missing_file_exit_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


# Files that json.load rejects with an error other than JSONDecodeError.
UNREADABLE_JSON_FILES = {
    "undecodable bytes": b"\xff\xfe{\x00}\x00",
    "nesting past the recursion limit": b"[" * 200_000 + b"]" * 200_000,
    "integer past the digit limit": b'{"input_seed": ' + b"9" * 5000 + b"}",
}


@pytest.mark.parametrize("command", ["run", "report"])
@pytest.mark.parametrize("name", sorted(UNREADABLE_JSON_FILES))
def test_unreadable_json_file_exit_2(tmp_path, capsys, command, name):
    path = tmp_path / "file.json"
    path.write_bytes(UNREADABLE_JSON_FILES[name])
    if command == "run":
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    else:
        argv = ["report", str(path)]
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


def _base_config():
    config = {
        "lattice": {"rows": 2, "cols": 2},
        "input_seed": 5,
        "prover": {"type": "honest", "noise": {"theta": 0.2}},
        "protocol": {"num_copies": 1_000, "master_seed": 3, "psamp_window": [0.45, 0.55]},
        "repetitions": 1,
    }
    return json.loads(json.dumps(config))


def _set(config, path, value):
    *parents, key = path.split(".")
    for name in parents:
        config = config[name]
    config[key] = value


# One row per malformed field: (dotted path in the config, bad value).
MALFORMED_FIELDS = [
    ("lattice", 5),
    ("lattice.rows", "four"),
    ("lattice.cols", [2]),
    ("lattice.rows", 0),
    ("input_seed", "seven"),
    ("input_seed", -1),
    ("prover", [1]),
    ("prover.type", "oracle"),
    ("prover.noise", [1]),
    ("prover.noise.theta", "wide"),
    ("prover.noise.meas_flip", 1.5),
    ("prover.noise.depolarizing", -0.1),
    ("protocol", "fast"),
    ("protocol.num_copies", "many"),
    ("protocol.num_copies", -5),
    ("protocol.master_seed", None),
    ("protocol.master_seed", -2),
    ("protocol.threshold_o10", "high"),
    ("protocol.threshold_fin", 1.5),
    ("protocol.psamp_window", [0.5]),
    ("protocol.psamp_window", "wide"),
    ("protocol.psamp_window", [0.4, "x"]),
    ("protocol.psamp_window", [0.6, 0.4]),
    ("repetitions", 0),
    ("repetitions", -1),
    ("repetitions", "two"),
    # Integer fields take JSON integers only, number fields JSON numbers only.
    ("lattice.rows", 2.5),
    ("lattice.rows", True),
    ("lattice.rows", "2"),
    ("protocol.num_copies", True),
    ("protocol.num_copies", 1000.7),
    ("protocol.master_seed", 3.9),
    ("protocol.threshold_o10", "0.9"),
    ("repetitions", 1.5),
    ("input_seed", "5"),
    # Every object rejects the keys it does not read.
    ("lattice.depth", 3),
    ("protocl", {"num_copies": 1_000, "master_seed": 3}),
    ("prover.noise.thta", 0.1),
    ("prover", {"type": "degraded", "target_o10_sq": 0.97, "target_f_in": 1.0, "noise": {"theta": 0.1}}),
    ("prover.target_o10_sq", 0.97),
    # Negative dimensions are malformed before they are a capacity question.
    ("lattice", {"rows": -1, "cols": -30}),
]


@pytest.mark.parametrize(
    "path,value",
    [pytest.param(path, value, id=f"{path}={json.dumps(value)}") for path, value in MALFORMED_FIELDS],
)
def test_run_malformed_field_exit_2(tmp_path, capsys, path, value):
    config = _base_config()
    _set(config, path, value)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("noise", [{"input_tilt": 1e308}, {"eta": 1e308}])
def test_run_non_finite_phase_exit_2(tmp_path, capsys, noise):
    # Finite noise values whose propagation phases leave float range: rejected
    # with the model at config load, with no warning, traceback or output.
    config = _base_config()
    config["prover"]["noise"] = noise
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("eta", [3e307, 7e307, 1e308])
def test_run_finite_phase_levels_exit_0(tmp_path, capsys, eta):
    # On a 1x2 lattice these evolution times keep every phase finite, so the
    # run completes with nothing on stderr, warnings included.
    config = _base_config()
    config["lattice"] = {"rows": 1, "cols": 2}
    config["prover"]["noise"] = {"eta": eta}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


# Seeded fuzzing of malformed configs. Every mutation below is malformed on
# its own, whatever other mutations the same config receives.
_NOISE = ["theta", "eta", "input_tilt", "meas_flip", "depolarizing"]
_TARGETS = ["target_o10_sq", "target_f_in"]
# Keys each object reads, for an honest and for a degraded prover.
_KEYS = {
    "": ["lattice", "input_seed", "prover", "protocol", "repetitions"],
    "lattice": ["rows", "cols"],
    "protocol": ["num_copies", "master_seed", "threshold_o10", "threshold_fin", "psamp_window"],
}
_HONEST_KEYS = dict(_KEYS, **{"prover": ["type", "noise"], "prover.noise": _NOISE})
_DEGRADED_KEYS = dict(_KEYS, **{"prover": ["type", "noise", *_TARGETS], "prover.noise": ["meas_flip"]})
_KEY_POOL = ["depth", "protocl", "thta", "rows", "theta", "meas_flip", "num_copies", "target_f_in", "type", ""]
_REQUIRED = ["lattice", "protocol", "lattice.rows", "lattice.cols", "protocol.num_copies",
             "protocol.master_seed"]
_INTEGERS = ["lattice.rows", "lattice.cols", "input_seed", "protocol.num_copies",
             "protocol.master_seed", "repetitions"]
_NOT_INTEGERS = [True, False, None, "3", 2.5, 3.0, [], {}]
_NOT_NUMBERS = [True, None, "0.5", [0.5], {}]
_NOT_OBJECTS = [5, "x", [1], None, True, 2.5]
_OUT_OF_RANGE = {
    "lattice.rows": [0, -1, 10**6],
    "lattice.cols": [0, -30, 27],
    "input_seed": [-1],
    "protocol.num_copies": [-1, MAX_COPIES + 1],
    "protocol.master_seed": [-7],
    "repetitions": [0, -2],
    "protocol.threshold_o10": [1.5, -0.1, math.nan, math.inf],
    "protocol.threshold_fin": [2.0, -math.inf],
    "protocol.psamp_window": [[0.6, 0.4], [0.5], [], [0.1, 2.0], [0.4, "x"], "wide", {}],
    "prover.type": ["oracle", 3, None, ["honest"]],
    "prover.noise.theta": [math.nan, math.inf],
    "prover.noise.eta": [-math.inf],
    "prover.noise.input_tilt": [math.nan],
    "prover.noise.meas_flip": [1.5, -0.1, math.nan],
    "prover.noise.depolarizing": [2.0, -1e-3],
    "prover.target_o10_sq": [1.5, -0.2, math.nan],
    "prover.target_f_in": [1.01, -1.0],
}


def _lookup(config, path):
    """The object at a dotted path, or None where the path no longer leads to one."""
    for name in filter(None, path.split(".")):
        config = config.get(name) if isinstance(config, dict) else None
    return config if isinstance(config, dict) else None


def _mutate(config, draw):
    """Apply one malformed mutation; returns the (possibly replaced) config."""

    def pick(options):
        return options[draw.integers(len(options))]

    prover = config.get("prover")
    degraded = isinstance(prover, dict) and prover.get("type") == "degraded"
    keys = _DEGRADED_KEYS if degraded else _HONEST_KEYS
    numbers = [f"prover.noise.{k}" for k in keys["prover.noise"]]
    numbers += [f"prover.{k}" for k in _TARGETS if degraded]
    kind = draw.integers(5)
    if kind == 0:  # wrong type
        if draw.integers(2):
            path, bad = pick(_INTEGERS), pick(_NOT_INTEGERS)
        else:
            path, bad = pick(numbers), pick(_NOT_NUMBERS)
    elif kind == 1:  # out of range
        path = pick([p for p in _OUT_OF_RANGE if p in numbers or not p.startswith(("prover.noise", "prover.target"))])
        bad = pick(_OUT_OF_RANGE[path])
    elif kind == 2:  # missing required field
        parent, _, key = pick(_REQUIRED + [f"prover.{k}" for k in _TARGETS if degraded]).rpartition(".")
        if _lookup(config, parent) is not None:
            _lookup(config, parent).pop(key, None)
        return config
    elif kind == 3:  # a key the object does not read
        parent = pick(list(keys))
        if _lookup(config, parent) is not None:
            _lookup(config, parent)[pick([k for k in _KEY_POOL if k not in keys[parent]])] = 1
        return config
    else:  # a non-object where an object belongs
        path, bad = pick(list(keys)), pick(_NOT_OBJECTS)
        if not path:
            return bad
    parent, _, key = path.rpartition(".")
    if _lookup(config, parent) is not None:
        _lookup(config, parent)[key] = bad
    return config


def test_run_fuzzed_malformed_configs_exit_2_or_3(tmp_path, capsys):
    draw = np.random.default_rng(20240812)
    honest = _base_config()
    degraded = _base_config()
    degraded["prover"] = {
        "type": "degraded", "target_o10_sq": 0.97, "target_f_in": 1.0, "noise": {"meas_flip": 0.01},
    }
    cfg = tmp_path / "config.json"
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    codes = []
    start = time.perf_counter()
    for _ in range(1200):
        config = json.loads(json.dumps(degraded if draw.integers(3) == 0 else honest))
        for _ in range(1 + draw.integers(3)):
            if isinstance(config, dict):
                config = _mutate(config, draw)
        cfg.write_text(json.dumps(config))
        codes.append(main(argv))
        assert codes[-1] in (2, 3), config
        assert "Traceback" not in capsys.readouterr().err
    assert time.perf_counter() - start < 10.0
    assert not (tmp_path / "out").exists()
    assert codes.count(3) > 0 and codes.count(2) > 0


@pytest.mark.parametrize(
    "value",
    [
        {"type": "degraded", "target_o10_sq": "most", "target_f_in": 1.0},
        {"type": "degraded", "target_o10_sq": 0.97, "target_f_in": [1.0]},
    ],
    ids=["target_o10_sq", "target_f_in"],
)
def test_run_malformed_degraded_target_exit_2(tmp_path, value):
    config = _base_config()
    config["prover"] = value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--reps", "0"],
        ["--reps", "-1"],
        ["--reps", "x"],
        ["--seed", "-1"],
    ],
    ids=" ".join,
)
def test_run_malformed_argument_exit_2(tmp_path, argv):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_base_config()))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), *argv]) == 2


UNUSABLE_OUT = (
    "existing file", "under a file", "deep under a file", "dangling symlink", "name too long"
)


def _out_paths(tmp_path):
    """--out values (keyed by UNUSABLE_OUT) that name no directory and that
    mkdir cannot create."""
    (tmp_path / "file").write_text("")
    (tmp_path / "dangling").symlink_to(tmp_path / "missing")
    return {
        "existing file": tmp_path / "file",
        "under a file": tmp_path / "file" / "sub",
        "deep under a file": tmp_path / "file" / "a" / "b",
        "dangling symlink": tmp_path / "dangling",
        "name too long": tmp_path / ("a" * 300) / "out",
    }


@pytest.mark.parametrize("case", UNUSABLE_OUT)
def test_run_unusable_out_exit_2(tmp_path, capsys, case):
    out = _out_paths(tmp_path)[case]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_base_config()))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "--out" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "dangling", "file"]


@pytest.mark.parametrize("case", UNUSABLE_OUT)
def test_verify_bounds_unusable_out_exit_2(tmp_path, capsys, case):
    out = _out_paths(tmp_path)[case]
    argv = ["verify-bounds", "cauchy_schwarz", "--instances", "5", "--out", str(out)]
    assert main(argv) == 2
    assert "--out" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dangling", "file"]


@pytest.mark.parametrize("command", ["run", "verify-bounds"])
def test_out_that_mkdir_refuses_exit_2(tmp_path, capsys, monkeypatch, command):
    # --out passes the argument check when its nearest existing ancestor is a
    # directory, yet the command's mkdir can still fail: an unwritable or
    # virtual parent such as /proc.
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    out = tmp_path / "out"
    if command == "run":
        cfg = tmp_path / "config.json"
        write_config(cfg, repetitions=1)
        argv = ["run", "--config", str(cfg), "--out", str(out)]
    else:
        argv = ["verify-bounds", "cauchy_schwarz", "--instances", "5", "--out", str(out)]
    monkeypatch.setattr(Path, "mkdir", refuse)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 13] Permission denied: '{out}'\n"
    assert "Traceback" not in err


def test_run_malformed_thread_count_exit_2_before_any_work(tmp_path, capsys, monkeypatch):
    def build(*args):
        raise AssertionError("a model was built under a malformed FKLAB_THREADS")

    monkeypatch.setattr(cli, "make_honest_model", build)
    monkeypatch.setenv("FKLAB_THREADS", "abc")
    cfg = tmp_path / "config.json"
    write_config(cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: FKLAB_THREADS must be an integer, got 'abc'\n"
    assert not out.exists()


def test_run_out_creates_missing_directories(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(cfg, repetitions=1)
    out = tmp_path / "a" / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "samples_rep000.txt").exists()


def test_run_depolarized_4x4_exit_0(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(
        cfg,
        lattice={"rows": 4, "cols": 4},
        repetitions=1,
        prover={"type": "honest", "noise": {"depolarizing": 0.001}},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "report_rep000.json").exists()


def test_run_capacity_guard_exit_3(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(cfg, lattice={"rows": 6, "cols": 6})
    assert main(["run", "--config", str(cfg)]) == 3


class _ModelBuilt(Exception):
    pass


@pytest.mark.parametrize("rows,cols,admitted", [(4, 5, True), (4, 6, True), (5, 5, True), (2, 13, False)])
def test_run_setup_memory_guard(tmp_path, monkeypatch, capsys, rows, cols, admitted):
    """The guard acts at config load, before any model is built."""

    def build(*args):
        raise _ModelBuilt

    monkeypatch.setattr(cli, "make_honest_model", build)
    cfg = tmp_path / "config.json"
    write_config(cfg, lattice={"rows": rows, "cols": cols})
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    if admitted:
        with pytest.raises(_ModelBuilt):
            main(argv)
    else:
        assert main(argv) == 3
        assert "set-up guard" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path,value",
    [("protocol.master_sed", 3), ("protocol.psamp_window", [0.6, 0.4]), ("repetitions", 0)],
)
@pytest.mark.parametrize("prover", ["honest", "degraded"])
def test_run_config_is_checked_before_the_model_is_built(tmp_path, capsys, monkeypatch, prover, path, value):
    # A config that is malformed after its prover section exits 2 without
    # building a model: a degraded one would tune eta over the level grid.
    def build(*args):
        raise AssertionError("a model was built for a malformed config")

    monkeypatch.setattr(cli, "make_honest_model", build)
    monkeypatch.setattr(cli, "make_degraded_model", build)
    config = _base_config()
    if prover == "degraded":
        config["prover"] = {"type": "degraded", "target_o10_sq": 0.97, "target_f_in": 0.99}
    _set(config, path, value)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "error" in capsys.readouterr().err


def test_run_copy_budget_guard_exit_3(tmp_path):
    config = _base_config()
    config["protocol"]["num_copies"] = MAX_COPIES + 1
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("route", ["config", "--reps"])
def test_run_repetition_guard_exit_3_before_any_output(tmp_path, capsys, monkeypatch, route):
    def build(*args):
        raise AssertionError("a model was built past the repetition guard")

    monkeypatch.setattr(cli, "make_honest_model", build)
    config = _base_config()
    argv = ["run", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
    if route == "config":
        config["repetitions"] = cli.MAX_REPETITIONS + 1
    else:
        argv += ["--reps", str(cli.MAX_REPETITIONS + 1)]
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(argv) == 3
    assert "repetition guard" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_repetition_guard_admits_the_cap(tmp_path):
    config = _base_config()
    config["repetitions"] = cli.MAX_REPETITIONS
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert cli.load_experiment_config(str(cfg))["repetitions"] == cli.MAX_REPETITIONS


def test_echo_check_small_lattices(capsys):
    assert main(["echo-check", "1", "2"]) == 0
    assert main(["echo-check", "2", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "echo fidelity" in out


def test_echo_check_fails_the_floor_on_a_faulted_clock_x(monkeypatch, capsys):
    # A clock X that copies the lower half into both halves keeps the norm,
    # since each clock half holds half of it, so only the fidelity floor can
    # catch it.
    def copy_lower(a):
        a[a.size // 2 :] = a[: a.size // 2]

    monkeypatch.setattr(prover, "_swap_halves_inplace", copy_lower)
    assert main(["echo-check", "2", "2"]) == 1
    assert "echo fidelity 2x2" in capsys.readouterr().out


def test_echo_check_capacity_exit_3():
    assert main(["echo-check", "10", "10"]) == 3


def test_echo_check_guard_acts_before_the_lattice_is_built(monkeypatch):
    def build(*args):
        raise AssertionError("lattice built before the echo guard")

    monkeypatch.setattr(cli, "build_lattice", build)
    assert main(["echo-check", "1", "100000000"]) == 3


def test_verify_bounds_writes_csv(tmp_path):
    assert main([
        "verify-bounds", "cauchy_schwarz", "--instances", "50",
        "--seed", "1", "--out", str(tmp_path),
    ]) == 0
    rows = (tmp_path / "bounds_cauchy_schwarz.csv").read_text().splitlines()
    assert rows[0] == "test_name,instances,violations,max_margin"
    fields = rows[1].split(",")
    assert fields[0] == "cauchy_schwarz" and fields[2] == "0"


def test_verify_bounds_counts_a_cauchy_schwarz_violation(tmp_path, monkeypatch):
    # A faulted oracle whose u is 10% long reads |Tr rho O10|^2 = 0.55^2 on
    # every pure history state. The suite must count each instance as a
    # violation, write its row and exit 1, not stop at a raise (exit 2). The
    # history state is that of the suite's input with every choice flipped,
    # so F_in and F_out, which read the same u against the suite's input,
    # stay inside [0, 1].
    phases = analysis.zz_phases
    monkeypatch.setattr(analysis, "zz_phases", lambda lattice, time: 1.1 * phases(lattice, time))
    lattice, spec, _, _ = analysis._suite_setting(0, 0)
    flipped = InputSpec(tuple(
        InputType.Y_TYPE if kind is InputType.X_TYPE else InputType.X_TYPE for kind in spec.choices
    ))
    psi = ideal_history_state(lattice, flipped).amplitudes
    history = analysis.DensityMatrix(lattice.num_qubits + 1, np.outer(psi, psi.conj()))
    monkeypatch.setattr(analysis, "random_density_matrix", lambda num_qubits, rng: history)
    argv = ["verify-bounds", "cauchy_schwarz", "--instances", "3", "--out", str(tmp_path)]
    assert main(argv) == 1
    rows = (tmp_path / "bounds_cauchy_schwarz.csv").read_text().splitlines()
    assert rows[0] == "test_name,instances,violations,max_margin"
    name, instances, violations, margin = rows[1].split(",")
    assert (name, instances, violations) == ("cauchy_schwarz", "3", "3")
    assert abs(float(margin) - (0.55**2 - 0.25)) < 1e-9


def _bounds_row(out_dir, suite):
    rows = (out_dir / f"bounds_{suite}.csv").read_text().splitlines()
    assert rows[0] == "test_name,instances,violations,max_margin"
    return rows[1].split(",")


def test_verify_bounds_counts_a_faulted_lower_bound_oracle(tmp_path, monkeypatch, capsys):
    # With the oracle's u 10% long, the first draw reads F_out about 1.2 and
    # ExactParameters raises. That raise is a failed check: the suite counts
    # it with margin inf, makes no further check, writes its row and exits 1.
    # The error's text names the cause on stderr.
    phases = analysis.zz_phases
    monkeypatch.setattr(analysis, "zz_phases", lambda lattice, time: 1.1 * phases(lattice, time))
    assert main(["verify-bounds", "lower_bound", "--instances", "3", "--out", str(tmp_path)]) == 1
    assert _bounds_row(tmp_path, "lower_bound") == ["lower_bound", "1", "1", "inf"]
    err = capsys.readouterr().err
    assert "lower_bound" in err and "outside [0, 1]" in err


def test_verify_bounds_counts_a_tvd_chain_violation(tmp_path, monkeypatch):
    # A ceiling of 0 claims the real and ideal laws are equal; every random
    # state's law differs from the ideal one.
    monkeypatch.setattr(analysis, "tvd_fidelity_bound", lambda f_out: 0.0)
    assert main(["verify-bounds", "tvd_chain", "--instances", "3", "--out", str(tmp_path)]) == 1
    name, instances, violations, margin = _bounds_row(tmp_path, "tvd_chain")
    assert (name, instances, violations) == ("tvd_chain", "3", "3")
    assert float(margin) > 0


def test_verify_bounds_counts_a_faulted_stochastic_bound(tmp_path, monkeypatch):
    # The bound reads every state as maximally impure (delta_p = 1), which no
    # infidelity below 1 permits: the first instance raises
    # ValidationError, counted as a failed check with margin inf.
    bound = analysis.stochastic_trace_bound
    monkeypatch.setattr(analysis, "stochastic_trace_bound", lambda delta_f, delta_p: bound(delta_f, 1.0))
    assert main(["verify-bounds", "stochastic", "--instances", "3", "--out", str(tmp_path)]) == 1
    assert _bounds_row(tmp_path, "stochastic") == ["stochastic", "1", "1", "inf"]


def test_verify_bounds_counts_a_faulted_martingale_law(tmp_path, monkeypatch):
    # A law with every trial +1: the IID deviation is 1 and the alternating
    # one 0.2, both past 3.2/sqrt(N). The worst is IID at N = 10000.
    monkeypatch.setattr(analysis, "chain_outcome_law", lambda trials, chain: np.eye(2, trials + 1, trials))
    assert main(["verify-bounds", "martingale", "--out", str(tmp_path)]) == 1
    name, instances, violations, margin = _bounds_row(tmp_path, "martingale")
    assert (name, instances, violations) == ("martingale", "4", "4")
    assert float(margin) == 1.0 - 3.2 / 100


def test_verify_bounds_counts_a_failed_symbolic_php_check(tmp_path, monkeypatch):
    # The symbolic check denies that P inverts H on the one 1x2 instance,
    # against the dense algebra. The echoes run on the dense H and P, not on
    # the symbolic answer, so both fidelities still pass: 3 checks, 1 violation.
    monkeypatch.setattr(analysis, "php_negation_check", lambda terms, p: False)
    assert main(["verify-bounds", "php_echo", "--instances", "4", "--out", str(tmp_path)]) == 1
    assert _bounds_row(tmp_path, "php_echo") == ["php_echo", "3", "1", "1.0"]


def test_verify_bounds_counts_a_faulted_noisy_measurement_bound(tmp_path, monkeypatch):
    # The bound reads every state as ideal (delta_f = 0), leaving only the
    # eps n = 0.01 flip term. That holds for instance 0, which is the ideal
    # state, and fails for the two perturbed ones.
    bound = analysis.noisy_measurement_tvd_bound
    monkeypatch.setattr(analysis, "noisy_measurement_tvd_bound", lambda delta_f, eps, n: bound(0.0, eps, n))
    assert main(["verify-bounds", "noisy_meas", "--instances", "3", "--out", str(tmp_path)]) == 1
    name, instances, violations, margin = _bounds_row(tmp_path, "noisy_meas")
    assert (name, instances, violations) == ("noisy_meas", "3", "2")
    assert float(margin) > 0


def test_verify_bounds_capacity_inside_a_suite_exit_3(tmp_path, monkeypatch):
    # A capacity raise is not a failed check: it leaves the suite, and no row is written.
    def refuse(num_qubits, rng):
        raise CapacityError("refused")

    monkeypatch.setattr(analysis, "random_density_matrix", refuse)
    assert main(["verify-bounds", "cauchy_schwarz", "--instances", "3", "--out", str(tmp_path)]) == 3
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("suite", analysis.SUITE_NAMES)
def test_verify_bounds_instance_guard_exit_3(monkeypatch, tmp_path, suite):
    def refuse(*args):
        raise AssertionError("suite ran past the instance guard")

    for name in analysis.SUITES:
        monkeypatch.setitem(analysis.SUITES, name, refuse)
    argv = ["verify-bounds", suite, "--instances", str(analysis.MAX_SUITE_INSTANCES + 1)]
    assert main(argv + ["--out", str(tmp_path)]) == 3
    assert not list(tmp_path.iterdir())


def test_verify_bounds_instance_guard_admits_the_cap(monkeypatch, tmp_path):
    calls = []

    def stub(instances, seed):
        calls.append((instances, seed))
        return analysis.SuiteResult("martingale", instances, 0, -math.inf)

    monkeypatch.setitem(analysis.SUITES, "martingale", stub)
    argv = ["verify-bounds", "martingale", "--instances", str(analysis.MAX_SUITE_INSTANCES)]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert calls == [(analysis.MAX_SUITE_INSTANCES, 0)]


@pytest.mark.parametrize(
    "argv",
    [
        ["echo-check", "1", "2", "--seed", "-1"],
        ["verify-bounds", "stochastic", "--seed", "-1"],
        ["verify-bounds", "stochastic", "--instances", "0"],
        ["verify-bounds", "stochastic", "--instances", "-5"],
    ],
    ids=" ".join,
)
def test_malformed_argument_exit_2(argv):
    assert main(argv) == 2


def test_verify_bounds_unknown_suite_exit_2(tmp_path):
    assert main(["verify-bounds", "nonsense", "--out", str(tmp_path)]) == 2


def test_report_pretty_print(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    write_config(cfg, repetitions=1)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", str(out / "report_rep000.json")]) == 0
    assert "o10_sq_scaled" in capsys.readouterr().out


def test_report_missing_file_exit_2(tmp_path):
    assert main(["report", str(tmp_path / "missing.json")]) == 2


def test_unknown_command_exit_2():
    assert main(["frobnicate"]) == 2


def test_console_entry_point_importable():
    from fklab.cli import build_parser

    parser = build_parser()
    assert parser.prog == "fklab"
