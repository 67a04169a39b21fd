"""The workloads: their generated inputs, their commands and the checks
of their outputs.

The workload seed reaches the program only through the generated config
files (`input_seed`, `master_seed`). The certify commands take no config
file, so they run with their default seeds and read the same inputs on
every run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Deviations assumed by analysis.completeness_rejection_bound: 0.006 for the
# input-test estimators and 0.0015 for the propagation estimate |o10|.
INPUT_DEVIATION = 0.006
PROPAGATION_DEVIATION = 0.0015
# Total failure probability allowed to the Hoeffding checks of one report.
ESTIMATOR_FAILURE_PROB = 1e-9

BOUND_SUITES = (
    "cauchy_schwarz",
    "lower_bound",
    "tvd_chain",
    "stochastic",
    "martingale",
    "php_echo",
    "noisy_meas",
)


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why each exists."""

    name: str
    # `fklab run` workloads: lattice, prover section, copies, repetitions.
    rows: int = 4
    cols: int = 4
    prover: dict = field(default_factory=lambda: {"type": "honest"})
    num_copies: int = 0
    repetitions: int = 1
    transcript: bool = False
    check_estimators: bool = False
    must_reject: bool = False
    certify: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="honest-4x4",
            num_copies=3_500_000,
            repetitions=2,
            check_estimators=True,
        ),
        Workload(
            name="degraded-transcript-4x4",
            prover={
                "type": "degraded",
                "target_o10_sq": 0.98,
                "target_f_in": 0.98,
                "noise": {"meas_flip": 5e-4},
            },
            num_copies=200_000,
            transcript=True,
            must_reject=True,
        ),
        Workload(
            name="certify-4x5",
            cols=5,
            certify=True,
        ),
    )
}


def write_config(workload: Workload, seed: int, directory: Path) -> Path | None:
    """Write the workload's run config for `seed`; None for certify."""
    if workload.certify:
        return None
    draw = random.Random(seed)
    config = {
        "lattice": {"rows": workload.rows, "cols": workload.cols},
        "input_seed": draw.randrange(2**31),
        "prover": workload.prover,
        "protocol": {"num_copies": workload.num_copies, "master_seed": draw.randrange(2**31)},
        "repetitions": workload.repetitions,
    }
    path = directory / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


def commands(workload: Workload, config: Path | None, out_dir: Path) -> list[list[str]]:
    """The `fklab` argument lists of one execution of the workload."""
    if workload.certify:
        return [["echo-check", str(workload.rows), str(workload.cols)]] + [
            ["verify-bounds", suite, "--out", str(out_dir)] for suite in BOUND_SUITES
        ]
    argv = ["run", "--config", str(config), "--out", str(out_dir)]
    return [argv + ["--transcript"]] if workload.transcript else [argv]


def operations(workload: Workload) -> list[str]:
    """Names of the operations of one execution: repetitions or commands."""
    if workload.certify:
        return ["echo-check"] + list(BOUND_SUITES)
    return [f"rep{r:03d}" for r in range(workload.repetitions)]


def op_artifacts(workload: Workload, op: str, out_dir: Path, stdout: dict) -> dict:
    """Digests of the bytes that must not change between executions of one
    operation (None for a missing file)."""
    if op == "echo-check":
        return {"stdout": hashlib.sha256(stdout.get("echo-check", "").encode()).hexdigest()}
    if workload.certify:
        names = [f"bounds_{op}.csv"]
    else:
        names = [
            f"report_{op}.json",
            f"samples_{op}.txt",
            "summary.csv",
        ] + ([f"transcript_{op}.jsonl"] if workload.transcript else [])
    return {name: _digest(out_dir / name) for name in names}


def _digest(path: Path) -> str | None:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    except FileNotFoundError:
        return None
    return digest.hexdigest()


def hoeffding_width(trials: int, value_range: float, failure_prob: float) -> float:
    """Two-sided Hoeffding half-width for a mean of `trials` bounded draws."""
    if trials < 1:
        return math.inf
    return value_range * math.sqrt(math.log(2.0 / failure_prob) / (2.0 * trials))


def estimator_failures(report: dict, params) -> tuple[list[str], bool]:
    """Check a report's estimators against the model's exact parameters.

    Each estimator must lie within a Hoeffding width of its exact value at a
    total failure probability of ESTIMATOR_FAILURE_PROB (six deviations: F_in,
    p_samp and the real and imaginary parts of both propagation means). The
    second value tells whether all estimators lie inside the deviations that
    the completeness bound assumes.
    """
    c = report["counters"]
    per_check = ESTIMATOR_FAILURE_PROB / 6
    n_input = c["n_in_plus"] + c["n_clock_minus"]
    w_fin = hoeffding_width(c["n_in_plus"], 1.0, per_check)
    w_psamp = hoeffding_width(n_input, 1.0, per_check)
    # o10 = (h_x - i h_y) / 2 and each b*u term has parts in [-1, 1].
    w_o10 = 0.5 * (hoeffding_width(c["n_x"], 2.0, per_check) + hoeffding_width(c["n_y"], 2.0, per_check))
    if report["f_in_m"] is None or report["p_samp_m"] is None or report["o10_re"] is None:
        return ["an estimator is undefined"], False
    o10 = complex(report["o10_re"], report["o10_im"])
    dev_fin = abs(report["f_in_m"] - params.f_in)
    dev_psamp = abs(report["p_samp_m"] - params.p_samp)
    dev = o10 - params.tr_rho_o10
    failures = []
    if dev_fin > w_fin:
        failures.append(f"f_in_m off by {dev_fin:.3g} > {w_fin:.3g}")
    if dev_psamp > w_psamp:
        failures.append(f"p_samp_m off by {dev_psamp:.3g} > {w_psamp:.3g}")
    if max(abs(dev.real), abs(dev.imag)) > w_o10:
        failures.append(f"o10_m off by {dev:.3g} > {w_o10:.3g} per part")
    inside = (
        dev_fin <= INPUT_DEVIATION
        and dev_psamp <= INPUT_DEVIATION
        and abs(abs(o10) - abs(params.tr_rho_o10)) <= PROPAGATION_DEVIATION
    )
    return failures, inside


def _decision(report: dict, protocol) -> bool:
    """The verifier's threshold rule applied to the reported estimators,
    written out here so that it checks verifier.decide rather than reuses it."""
    if None in (report["o10_sq_scaled"], report["f_in_m"], report["p_samp_m"]):
        return False
    lo, hi = protocol.psamp_window
    return (
        report["o10_sq_scaled"] >= protocol.threshold_o10
        and report["f_in_m"] >= protocol.threshold_fin
        and lo <= report["p_samp_m"] <= hi
    )


def check_outputs(workload: Workload, config: Path | None, out_dir: Path, stdout: dict, notes: dict) -> dict:
    """Failure reasons per operation of the reference execution.

    `notes` collects facts that are not failures, such as honest repetitions
    whose estimators left the completeness deviations.
    """
    failures = {op: [] for op in operations(workload)}
    if workload.certify:
        _check_certify(out_dir, stdout, failures, notes)
    else:
        _check_run(workload, config, out_dir, failures, notes)
    return failures


def _check_certify(out_dir: Path, stdout: dict, failures: dict, notes: dict) -> None:
    from fklab.cli import ECHO_FIDELITY_FLOOR

    line = stdout.get("echo-check", "").strip()
    try:
        fidelity = float(line.rsplit(":", 1)[1])
    except (IndexError, ValueError):
        failures["echo-check"].append(f"unparsable echo-check output {line!r}")
    else:
        if not fidelity >= ECHO_FIDELITY_FLOOR:
            failures["echo-check"].append(f"echo fidelity {fidelity!r} below the floor")
    notes["violations"] = 0
    notes["instances"] = 0
    for suite in BOUND_SUITES:
        try:
            with open(out_dir / f"bounds_{suite}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except FileNotFoundError:
            failures[suite].append("no CSV written")
            continue
        if len(rows) != 1 or rows[0]["test_name"] != suite:
            failures[suite].append(f"malformed CSV rows {rows!r}")
            continue
        violations = int(rows[0]["violations"])
        notes["violations"] += violations
        notes["instances"] += int(rows[0]["instances"])
        if violations:
            failures[suite].append(f"{violations} violations")
        if int(rows[0]["instances"]) < 1:
            failures[suite].append("no instances checked")


def _check_run(workload: Workload, config: Path, out_dir: Path, failures: dict, notes: dict) -> None:
    from fklab.cli import load_experiment_config
    from fklab.prover import exact_model_parameters

    cfg = load_experiment_config(str(config))
    params = exact_model_parameters(cfg["model"]) if workload.check_estimators else None
    protocol = cfg["protocol"]
    try:
        with open(out_dir / "summary.csv", newline="") as fh:
            summary = {int(row["rep"]): row for row in csv.DictReader(fh)}
    except FileNotFoundError:
        summary = {}
    notes.setdefault("completeness_excursions", 0)
    for rep in range(workload.repetitions):
        op = f"rep{rep:03d}"
        fail = failures[op]
        try:
            report = json.loads((out_dir / f"report_{op}.json").read_text())
            samples = (out_dir / f"samples_{op}.txt").read_text().splitlines()
        except FileNotFoundError as exc:
            fail.append(f"missing output {exc.filename}")
            continue
        row = summary.get(rep)
        if row is None:
            fail.append("no summary row")
        elif int(row["num_samples"]) != len(samples):
            fail.append(f"{len(samples)} sample lines, summary says {row['num_samples']}")
        if report["accepted"] != _decision(report, protocol):
            fail.append("decision differs from the threshold rule")
        if workload.must_reject and report["accepted"]:
            fail.append("soundness fixture accepted")
        if params is not None:
            estimator_fail, inside = estimator_failures(report, params)
            fail.extend(estimator_fail)
            if not inside:
                notes["completeness_excursions"] += 1
            elif not report["accepted"]:
                fail.append("rejected although every estimator is inside the completeness deviations")
        if workload.transcript:
            fail.extend(check_transcript(out_dir / f"transcript_{op}.jsonl", report, samples, workload.num_copies))


def check_transcript(path: Path, report: dict, samples: list[str], num_copies: int) -> list[str]:
    """Recompute the report's counters and samples from the JSONL transcript.

    Sums follow the verifier's documented reduction (numpy sum within each
    chunk, then a sequential merge in chunk order), so the recomputed
    counters must equal the reported ones exactly.
    """
    import numpy as np
    from fklab.verifier import CHUNK_SIZE

    try:
        with open(path) as fh:
            records = [json.loads(line) for line in fh]
    except FileNotFoundError:
        return ["no transcript written"]
    if len(records) != num_copies:
        return [f"transcript has {len(records)} records, expected {num_copies}"]
    if any(r["copy_index"] != i for i, r in enumerate(records)):
        return ["transcript copy indices out of order"]

    b_sampling = np.array([r["b_sampling"] for r in records], dtype=np.int8)
    b_testtype = np.array([r["b_testtype"] for r in records], dtype=np.int8)
    basis = np.array([{"X": 0, "Y": 1, None: -1}[r["basis_choice"]] for r in records], dtype=np.int8)
    clock = np.array([r["clock_outcome"] for r in records], dtype=np.int8)
    outcome_zero = np.array([r["system_outcomes"] is not None and "1" not in r["system_outcomes"] for r in records])
    u = np.array([complex(*r["u"]) if r["u"] is not None else complex("nan") for r in records])

    total = {"s_xu": 0j, "s_yu": 0j, "n_x": 0, "n_y": 0, "n_in_plus": 0, "n_in_plus_0": 0,
             "n_total_sampling": 0, "n_clock_minus": 0}
    for start in range(0, num_copies, CHUNK_SIZE):
        sl = slice(start, start + CHUNK_SIZE)
        samp = b_sampling[sl] == 1
        input_test = ~samp & (b_testtype[sl] == 0)
        in_plus = input_test & (clock[sl] == 1)
        total["n_total_sampling"] += int(samp.sum())
        total["n_clock_minus"] += int((input_test & (clock[sl] == -1)).sum())
        total["n_in_plus"] += int(in_plus.sum())
        total["n_in_plus_0"] += int((in_plus & outcome_zero[sl]).sum())
        for code, s_key, n_key in ((0, "s_xu", "n_x"), (1, "s_yu", "n_y")):
            sel = basis[sl] == code
            total[s_key] += complex(np.sum(clock[sl][sel].astype(np.float64) * u[sl][sel]))
            total[n_key] += int(sel.sum())
    recomputed = {k: [v.real, v.imag] if isinstance(v, complex) else v for k, v in total.items()}

    failures = []
    if recomputed != report["counters"]:
        failures.append(f"transcript counters {recomputed} differ from the report {report['counters']}")
    stored = [r["system_outcomes"] for r in records
              if r["b_sampling"] == 1 and r["clock_outcome"] == -1 and r["system_outcomes"] is not None]
    if stored != samples:
        failures.append("samples recomputed from the transcript differ from the sample file")
    return failures
