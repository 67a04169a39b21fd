"""Replay one `fklab` command through the package's public functions.

    python3 perfbench/replay.py --mode MODE [--run-id ID] -- FKLAB_ARGS...

FKLAB_ARGS is the same argument list the workload passes to `fklab`
(`run ...`, `echo-check ...` or `verify-bounds ...`). The replay performs the
steps of the matching `cli.cmd_*` function in the same order and writes the
same files, so its outputs can be compared byte for byte with the command's.

Modes:
  setup  stop once everything paid before the first copy is done: the import
         of fklab, the config load, the mode distributions and the first
         pick on each of the four outcome tables (for echo-check: the import
         and the lattice and input build);
  trace  replay the whole command with one span per call, then time the
         probes that the replay itself does not contain.

The replay mirrors the source of the cli.cmd_* functions as it was when
the replay was written; MIRRORED_SOURCE holds the SHA-256 of each. In trace
mode the result lists every function whose source has changed since, and
the benchmark fails the traced operation, so a replay that has drifted from
the command fails loudly rather than timing code the command no longer runs.

The last line of standard output is one JSON object with `setup_s`, the
lines the command would have printed, its exit code, exact counts, probe
samples and (in trace mode) the spans. The child imports nothing but the
standard library and stats.py before the timed import of fklab.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import json
import os
import sys
import time
from collections import deque
from dataclasses import replace
from pathlib import Path

from stats import NullTracer, Tracer

PICK_PROBE_DRAWS = 1 << 16
PICK_PROBE_CALLS = 15
# SHA-256 of inspect.getsource of each cli function the replay mirrors.
MIRRORED_SOURCE = {
    "cmd_run": "35db7e754ec48d06cf01e43556185f8708181b83d9c3139997964779db437bdc",
    "cmd_echo_check": "4f18d75a4e4592609dda8b0ac7774b5016c364cf0581974ad0b3036befebcd4c",
    "cmd_verify_bounds": "c51189d564350bebe3340b7c882a9b0c3b26408b028f6c1666fd268485bd1938",
}


def source_digest(fn) -> str:
    return hashlib.sha256(inspect.getsource(fn).encode()).hexdigest()


def source_drift(cli) -> list[str]:
    """The mirrored cli functions whose source differs from MIRRORED_SOURCE."""
    return [name for name, digest in MIRRORED_SOURCE.items() if source_digest(getattr(cli, name)) != digest]


def array_bytes(obj) -> int:
    """Bytes held by the numpy arrays among an object's attributes (also
    inside tuples and lists), found without naming the attributes."""
    import numpy as np

    total = 0
    stack = list(vars(obj).values())
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, (tuple, list)):
            stack.extend(value)
    return total


def _build_model(config_path: str, cfg: dict):
    """Rebuild the config's prover model with the same call the loader makes."""
    from fklab import prover

    with open(config_path) as fh:
        prover_cfg = json.load(fh).get("prover", {"type": "honest"})
    if prover_cfg.get("type", "honest") == "degraded":
        return prover.make_degraded_model(
            cfg["lattice"],
            cfg["input_spec"],
            float(prover_cfg["target_o10_sq"]),
            float(prover_cfg["target_f_in"]),
        )
    return prover.make_honest_model(cfg["lattice"], cfg["input_spec"], cfg["noise"])


def replay_run(args, tracer, mode: str, t_start: float) -> dict:
    """Steps of cli.cmd_run."""
    import numpy as np
    from fklab import cli, prover, rng, verifier

    with tracer.span("cli.load_config"):
        cfg = cli.load_experiment_config(args.config)
    with tracer.span("prover.mode_dist"):
        dists = prover.mode_distributions(cfg["model"])
    tables = (dists.sample_given_minus, dists.input_given_plus, dists.prop_x, dists.prop_y)
    zero = np.zeros(1)
    for table in tables:
        with tracer.span("simulator.alias_build"):
            table.pick(zero, zero)
    result = {"setup_s": time.perf_counter() - t_start, "exit_code": 0, "stdout": []}
    if mode == "setup":
        return result

    protocol = cfg["protocol"]
    if args.seed is not None:
        protocol = replace(protocol, master_seed=int(args.seed))
    reps = args.reps if args.reps is not None else cfg["repetitions"]
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)

    counts = {
        "output_components": len(cfg["model"].components()),
        "alias_entries": sum(t.probabilities.size for t in tables),
        "table_bytes": sum(array_bytes(t) for t in tables),
        "copies": protocol.num_copies * reps,
        "chunks": 0,
        "samples": 0,
        "column_bytes": 0,
        "transcript_records": 0,
    }
    summary_rows = []
    runs = []
    for rep in range(reps):
        with tracer.span("cli.rep"):
            rep_seed = rng.child_seed(protocol.master_seed, rng.TAG_REPETITION, rep)
            rep_config = replace(protocol, master_seed=rep_seed)
            with tracer.span("verifier.run_protocol"):
                transcript, report = verifier.run_protocol(
                    cfg["model"], cfg["lattice"], cfg["input_spec"], rep_config, noise=cfg["noise"]
                )
            with tracer.span("cli.report_write"):
                cli._dump_json(out_dir / f"report_rep{rep:03d}.json", report.to_json_dict())
            with tracer.span("cli.samples_write"):
                with open(out_dir / f"samples_rep{rep:03d}.txt", "w") as fh:
                    with tracer.span("verifier.sample_format"):
                        lines = report.sample_bitstrings()
                    for line in lines:
                        fh.write(line + "\n")
            with tracer.span("cli.transcript_write"):
                if args.transcript:
                    with open(out_dir / f"transcript_rep{rep:03d}.jsonl", "w") as fh:
                        for record in transcript.iter_records():
                            fh.write(json.dumps(record, sort_keys=True) + "\n")
                    counts["transcript_records"] += transcript.num_copies
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
            result["stdout"].append(
                f"rep {rep}: accepted={bool(report.accepted)} "
                f"f_in_m={report.f_in_m} p_samp_m={report.p_samp_m} "
                f"o10_sq_scaled={report.o10_sq_scaled}"
            )
        counts["chunks"] += -(-transcript.num_copies // transcript.chunk_size)
        counts["samples"] += int(report.samples.size)
        counts["column_bytes"] = max(counts["column_bytes"], array_bytes(transcript))
        # Transcripts are kept only where the records probe needs them.
        runs.append((rep_config, report, transcript if args.transcript else None))
    with tracer.span("cli.report_write"):
        with open(out_dir / "summary.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(summary_rows[0].keys()))
            writer.writeheader()
            writer.writerows(summary_rows)
    result["counts"] = counts

    if mode == "trace":
        del transcript
        t = time.perf_counter()
        result["probes"], result["thread_identical"] = _run_probes(args, cfg, tables, runs)
        result["probe_s"] = time.perf_counter() - t
    return result


def _run_probes(args, cfg, tables, runs):
    """Timings outside the replayed sequence: the model build alone, warm
    picks on the largest table, draining each transcript's iter_records
    (the record building inside the transcript write), and run_protocol at
    nproc threads (whose reports must equal the single-thread ones)."""
    import numpy as np
    from fklab import verifier

    probes = {}
    t = time.perf_counter()
    _build_model(args.config, cfg)
    probes["prover.model_build_s"] = [time.perf_counter() - t]

    largest = max(tables, key=lambda d: d.probabilities.size)
    u = np.random.default_rng(0).random((2, PICK_PROBE_DRAWS))
    pick_ns = []
    for _ in range(PICK_PROBE_CALLS):
        t = time.perf_counter()
        largest.pick(u[0], u[1])
        pick_ns.append((time.perf_counter() - t) * 1e9 / PICK_PROBE_DRAWS)
    probes["simulator.pick_ns"] = pick_ns

    records_s = []
    for _, _, transcript in runs:
        if transcript is not None:
            t = time.perf_counter()
            deque(transcript.iter_records(), maxlen=0)
            records_s.append(time.perf_counter() - t)
    if records_s:
        probes["verifier.transcript_records_s"] = records_s

    nproc = len(os.sched_getaffinity(0))
    identical = True
    nproc_s = []
    for rep_config, report, _ in runs:
        t = time.perf_counter()
        _, threaded = verifier.run_protocol(
            cfg["model"], cfg["lattice"], cfg["input_spec"], rep_config,
            noise=cfg["noise"], threads=nproc,
        )
        nproc_s.append(time.perf_counter() - t)
        identical &= json.dumps(threaded.to_json_dict(), sort_keys=True) == json.dumps(
            report.to_json_dict(), sort_keys=True
        ) and np.array_equal(threaded.samples, report.samples)
    probes["verifier.run_protocol_s_nproc"] = nproc_s
    return probes, bool(identical)


def replay_echo_check(args, tracer, mode: str, t_start: float) -> dict:
    """Steps of cli.cmd_echo_check."""
    from fklab import cli, lattice, prover, rng, simulator

    with tracer.span("lattice.build"):
        geometry = lattice.build_lattice(args.rows, args.cols)
        spec = lattice.random_input(geometry.num_qubits, rng.substream(args.seed or 0, rng.TAG_INPUT))
    result = {"setup_s": time.perf_counter() - t_start}
    if mode == "setup":
        return result
    with tracer.span("prover.echo"):
        prepared = prover.echo_prepare(geometry, spec)
    with tracer.span("prover.ideal_state"):
        ideal = prover.ideal_history_state(geometry, spec)
    with tracer.span("simulator.fidelity"):
        fidelity = simulator.state_fidelity(prepared, ideal)
    result["stdout"] = [f"echo fidelity {args.rows}x{args.cols}: {fidelity!r}"]
    result["exit_code"] = 0 if fidelity >= cli.ECHO_FIDELITY_FLOOR else 1
    return result


def replay_verify_bounds(args, tracer, mode: str, t_start: float) -> dict:
    """Steps of cli.cmd_verify_bounds."""
    from fklab import analysis

    result = {"setup_s": time.perf_counter() - t_start}
    if mode == "setup":
        return result
    with tracer.span(f"analysis.suite.{args.suite}"):
        suite = analysis.run_bound_suite(args.suite, args.instances, args.seed or 0)
    with tracer.span("cli.report_write"):
        out_dir = Path(args.out) if args.out else Path(".")
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"bounds_{args.suite}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["test_name", "instances", "violations", "max_margin"])
            writer.writerow([suite.test_name, suite.instances, suite.violations, repr(suite.max_margin)])
    result["stdout"] = [
        f"suite {suite.test_name}: {suite.violations} violations over "
        f"{suite.instances} instances (max margin {suite.max_margin:.3e}) -> {path}"
    ]
    result["exit_code"] = 0 if suite.violations == 0 else 1
    result["counts"] = {"violations": suite.violations, "instances": suite.instances}
    return result


REPLAYS = {
    "run": replay_run,
    "echo-check": replay_echo_check,
    "verify-bounds": replay_verify_bounds,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "trace"), required=True)
    parser.add_argument("--run-id", default="replay")
    parser.add_argument("fklab_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    fklab_args = opts.fklab_args[1:] if opts.fklab_args[:1] == ["--"] else opts.fklab_args

    tracer = Tracer(opts.run_id) if opts.mode == "trace" else NullTracer()
    t_start = time.perf_counter()
    with tracer.span("cli.import"):
        from fklab import cli
    args = cli.build_parser().parse_args(fklab_args)
    result = REPLAYS[args.command](args, tracer, opts.mode, t_start)
    if opts.mode == "trace":
        result["source_drift"] = source_drift(cli)
    result["spans"] = list(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
