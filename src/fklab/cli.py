"""Configuration-driven experiment runner.

Commands: run (full protocol from a JSON config), echo-check (gate-level
preparation fidelity), verify-bounds (analysis suites to CSV), report
(pretty-print a report JSON). Exit codes: 0 success, 2 malformed
config/arguments, 3 capacity guard; echo-check and verify-bounds exit 1 on a
failed check. FKLAB_THREADS caps internal parallelism.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import SUITE_NAMES, run_bound_suite
from .errors import CapacityError, FklabError
from .lattice import build_lattice, random_input
from .prover import (
    MAX_ECHO_SYSTEM_QUBITS,
    MAX_SETUP_BYTES,
    NOISE_JSON_FIELDS,
    SETUP_BYTES_PER_BASIS_STATE,
    NoiseModel,
    echo_prepare,
    ideal_history_state,
    make_degraded_model,
    make_honest_model,
)
from .rng import TAG_INPUT, TAG_REPETITION, child_seed, substream
from .simulator import MAX_STATE_QUBITS, state_fidelity
from .verifier import ProtocolConfig, run_protocol

ECHO_FIDELITY_FLOOR = 1.0 - 1e-10
DEGRADED_TARGETS = ("target_o10_sq", "target_f_in")
# A run writes a report and a sample file per repetition, so the count is
# capped: fifty times the 20 repetitions of the README example.
MAX_REPETITIONS = 1000


class ConfigError(FklabError, ValueError):
    """Raised for malformed experiment configs; maps to exit code 2."""


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise ConfigError(f"missing required field {key!r} in {context}")
    return data[key]


def _object(value, context: str, keys) -> dict:
    """A JSON object whose keys are all among `keys`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ConfigError(f"{context} has unknown keys {unknown}; allowed: {sorted(keys)}")
    return value


def _int(value, context: str) -> int:
    """A JSON integer: no bool, string or float."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context} must be a JSON integer, got {value!r}")
    return value


def _float(value, context: str) -> float:
    """A finite JSON number: no bool, string, NaN or infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a JSON number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"{context} must be finite, got {value!r}")
    return float(value)


def _seed(value, context: str) -> int:
    seed = _int(value, context)
    if seed < 0:
        raise ConfigError(f"{context} must be non-negative, got {seed}")
    return seed


def _check_shape(rows: int, cols: int, max_qubits: int) -> None:
    """Lattice-shape checks made before anything is allocated: exit 2 below
    1x1, exit 3 above `max_qubits` system qubits."""
    if rows < 1 or cols < 1:
        raise ConfigError(f"lattice dimensions must be at least 1, got {rows}x{cols}")
    if rows * cols > max_qubits:
        raise CapacityError(f"{rows}x{cols} lattice exceeds the {max_qubits}-qubit guard")


def _check_repetitions(reps: int, context: str) -> None:
    """Exit 3 above MAX_REPETITIONS, before any output is written."""
    if reps > MAX_REPETITIONS:
        raise CapacityError(f"{context} {reps} exceeds the {MAX_REPETITIONS}-repetition guard")


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type for seeds, which must be non-negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _out_dir(text: str) -> str:
    """argparse type for --out: a directory, or a path whose nearest existing
    ancestor is a directory, so the command's mkdir can create it."""
    path = Path(text)
    for existing in (path, *path.parents):
        try:
            existing.lstat()
        except (FileNotFoundError, NotADirectoryError):
            continue
        except OSError as exc:  # e.g. a name longer than the file system allows
            raise argparse.ArgumentTypeError(str(exc)) from exc
        if not existing.is_dir():
            raise argparse.ArgumentTypeError(f"{existing} exists and is not a directory")
        break
    return text


def _read_json(path: str, what: str):
    """The JSON value in the file at `path`, or ConfigError naming `what`."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
    # literal past Python's digit limit; RecursionError, nesting too deep.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def load_experiment_config(path: str) -> dict:
    """Parse and validate a run config, returning ready-to-use objects.

    Every section is checked before the model is built, so a malformed
    config exits without paying for the model (a degraded one tunes eta
    over the level grid)."""
    raw = _object(
        _read_json(path, "config"),
        "config",
        ("lattice", "input_seed", "prover", "protocol", "repetitions"),
    )

    lattice_cfg = _object(_require(raw, "lattice", "config"), "lattice", ("rows", "cols"))
    rows = _int(_require(lattice_cfg, "rows", "lattice"), "lattice.rows")
    cols = _int(_require(lattice_cfg, "cols", "lattice"), "lattice.cols")
    _check_shape(rows, cols, MAX_STATE_QUBITS)
    lattice = build_lattice(rows, cols)
    setup_bytes = SETUP_BYTES_PER_BASIS_STATE << lattice.num_qubits
    if setup_bytes > MAX_SETUP_BYTES:
        raise CapacityError(
            f"{rows}x{cols} lattice needs {setup_bytes / 2**30:.1f} GiB to set up, "
            f"over the {MAX_SETUP_BYTES / 2**30:.0f} GiB set-up guard"
        )

    input_seed = _seed(raw.get("input_seed", 0), "input_seed")

    prover_cfg = raw.get("prover", {"type": "honest"})
    kind = prover_cfg.get("type", "honest") if isinstance(prover_cfg, dict) else "honest"
    if kind == "honest":
        prover_keys, noise_keys = ("type", "noise"), NOISE_JSON_FIELDS
    elif kind == "degraded":
        # A degraded prover's state is fixed by its targets; only readout noise applies.
        prover_keys, noise_keys = ("type", "noise", *DEGRADED_TARGETS), ("meas_flip",)
    else:
        raise ConfigError(f"unknown prover type {kind!r}")
    prover_cfg = _object(prover_cfg, "prover", prover_keys)
    noise_cfg = _object(prover_cfg.get("noise", {}), "prover.noise", noise_keys)
    noise = NoiseModel.from_json_dict(
        {key: _float(value, f"prover.noise.{key}") for key, value in noise_cfg.items()}
    )
    if kind == "degraded":
        targets = [_float(_require(prover_cfg, key, "prover"), f"prover.{key}") for key in DEGRADED_TARGETS]

    proto_cfg = _object(
        _require(raw, "protocol", "config"),
        "protocol",
        ("num_copies", "master_seed", "threshold_o10", "threshold_fin", "psamp_window"),
    )
    window = proto_cfg.get("psamp_window", [0.494, 0.506])
    if not isinstance(window, list) or len(window) != 2:
        raise ConfigError(f"protocol.psamp_window must be a list of 2 numbers, got {window!r}")
    protocol = ProtocolConfig(
        num_copies=_int(_require(proto_cfg, "num_copies", "protocol"), "protocol.num_copies"),
        master_seed=_seed(_require(proto_cfg, "master_seed", "protocol"), "protocol.master_seed"),
        threshold_o10=_float(proto_cfg.get("threshold_o10", 0.994), "protocol.threshold_o10"),
        threshold_fin=_float(proto_cfg.get("threshold_fin", 0.994), "protocol.threshold_fin"),
        psamp_window=tuple(_float(w, "protocol.psamp_window") for w in window),
    )
    repetitions = _int(raw.get("repetitions", 1), "repetitions")
    if repetitions < 1:
        raise ConfigError(f"repetitions must be at least 1, got {repetitions}")
    _check_repetitions(repetitions, "repetitions")

    spec = random_input(lattice.num_qubits, substream(input_seed, TAG_INPUT))
    if kind == "honest":
        model = make_honest_model(lattice, spec, noise)
    else:
        model = make_degraded_model(lattice, spec, *targets)
    return {
        "lattice": lattice,
        "input_spec": spec,
        "model": model,
        "noise": noise,
        "protocol": protocol,
        "repetitions": repetitions,
    }


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def cmd_run(args) -> int:
    cfg = load_experiment_config(args.config)
    protocol: ProtocolConfig = cfg["protocol"]
    if args.seed is not None:
        protocol = replace(protocol, master_seed=int(args.seed))
    reps = args.reps if args.reps is not None else cfg["repetitions"]
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)

    summary_rows = []
    for rep in range(reps):
        rep_seed = child_seed(protocol.master_seed, TAG_REPETITION, rep)
        rep_config = replace(protocol, master_seed=rep_seed)
        transcript, report = run_protocol(
            cfg["model"], cfg["lattice"], cfg["input_spec"], rep_config, noise=cfg["noise"]
        )
        _dump_json(out_dir / f"report_rep{rep:03d}.json", report.to_json_dict())
        with open(out_dir / f"samples_rep{rep:03d}.txt", "w") as fh:
            for line in report.sample_bitstrings():
                fh.write(line + "\n")
        if args.transcript:
            with open(out_dir / f"transcript_rep{rep:03d}.jsonl", "w") as fh:
                for record in transcript.iter_records():
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
        summary_rows.append(
            {
                "rep": rep,
                "seed": rep_seed,
                "accepted": int(report.accepted),
                "f_in_m": report.f_in_m,
                "p_samp_m": report.p_samp_m,
                "o10_sq_scaled": report.o10_sq_scaled,
                "num_samples": int(report.samples.size),
            }
        )
        print(
            f"rep {rep}: accepted={bool(report.accepted)} "
            f"f_in_m={report.f_in_m} p_samp_m={report.p_samp_m} "
            f"o10_sq_scaled={report.o10_sq_scaled}"
        )

    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(summary_rows[0].keys()))
        writer.writeheader()
        writer.writerows(summary_rows)
    return 0


def guarded_run(args) -> int:
    """cmd_run, after a --reps override passes the repetition guard."""
    if args.reps is not None:
        _check_repetitions(args.reps, "--reps")
    return cmd_run(args)


def cmd_echo_check(args) -> int:
    lattice = build_lattice(args.rows, args.cols)
    spec = random_input(lattice.num_qubits, substream(args.seed or 0, TAG_INPUT))
    prepared = echo_prepare(lattice, spec)
    fidelity = state_fidelity(prepared, ideal_history_state(lattice, spec))
    print(f"echo fidelity {args.rows}x{args.cols}: {fidelity!r}")
    return 0 if fidelity >= ECHO_FIDELITY_FLOOR else 1


def guarded_echo_check(args) -> int:
    """cmd_echo_check, after the lattice shape passes the echo guard."""
    _check_shape(args.rows, args.cols, MAX_ECHO_SYSTEM_QUBITS)
    return cmd_echo_check(args)


def cmd_verify_bounds(args) -> int:
    result = run_bound_suite(args.suite, args.instances, args.seed or 0)
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"bounds_{args.suite}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["test_name", "instances", "violations", "max_margin"])
        writer.writerow([result.test_name, result.instances, result.violations, repr(result.max_margin)])
    print(
        f"suite {result.test_name}: {result.violations} violations over "
        f"{result.instances} instances (max margin {result.max_margin:.3e}) -> {path}"
    )
    return 0 if result.violations == 0 else 1


def cmd_report(args) -> int:
    print(json.dumps(_read_json(args.path, "report"), sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fklab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the protocol from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the experiment config JSON")
    p_run.add_argument("--seed", type=_nonnegative_int, default=None, help="override the master seed")
    p_run.add_argument("--out", type=_out_dir, default=None, help="output directory")
    p_run.add_argument("--transcript", action="store_true", help="also write per-copy JSONL")
    p_run.add_argument(
        "--reps",
        type=_positive_int,
        default=None,
        help=f"override the repetition count (1 to {MAX_REPETITIONS})",
    )
    p_run.set_defaults(func=guarded_run)

    p_echo = sub.add_parser("echo-check", help="check the gate-level preparation fidelity")
    p_echo.add_argument("rows", type=int)
    p_echo.add_argument("cols", type=int)
    p_echo.add_argument("--seed", type=_nonnegative_int, default=0)
    p_echo.set_defaults(func=guarded_echo_check)

    p_bounds = sub.add_parser("verify-bounds", help="run a bound-verification suite")
    p_bounds.add_argument("suite", help=f"one of {', '.join(SUITE_NAMES)}")
    p_bounds.add_argument("--instances", type=_positive_int, default=200)
    p_bounds.add_argument("--seed", type=_nonnegative_int, default=0)
    p_bounds.add_argument("--out", type=_out_dir, default=None)
    p_bounds.set_defaults(func=cmd_verify_bounds)

    p_report = sub.add_parser("report", help="pretty-print a report JSON")
    p_report.add_argument("path")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments, matching the malformed-input code.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FklabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
