"""fklab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's `src/`. Each workload runs as a closed loop
with one client: its `fklab` commands run in fresh processes, one at a time,
with FKLAB_THREADS=1.

--trace 0  end-to-end metrics, all from untraced processes: one untimed
           warm-up execution at FKLAB_THREADS=$(nproc), then a window of S
           seconds of timed `fklab` command executions (at least one), each
           after a run of yardstick.py, with set-up probes between them.
           Times are scaled to the nominal host speed by the yardstick.
           Every execution's outputs must equal the first timed execution's.
--trace 1  per-layer metrics: one untraced execution, then a traced replay
           of the same commands (see replay.py) whose spans give each layer's
           self time.

Every output is checked; a failed check or a byte difference between
executions counts as a failed operation. The last line of standard output
is {"correct", "attempted", "failed", "metrics"}; the line before it is the
detail (provenance, sample counts, notes), which is also written, with the
spans, under perfbench/_results/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "_work"
RESULTS_DIR = BENCH_DIR / "_results"
SRC_DIR = ROOT / "src"
REPLAY = BENCH_DIR / "replay.py"
YARDSTICK = BENCH_DIR / "yardstick.py"

# A run must end within 180 s; children still running at this deadline are
# killed and their operations fail.
RUN_DEADLINE_S = 160.0
# Set-up probes per --trace 0 run; setup_s is their median.
SETUP_SAMPLES = 3
# The time metrics of --trace 0 are in seconds at the host speed at which
# yardstick.py takes this long. The host's speed drifts by a third within
# minutes (README.md, Host speed), and the yardstick, run beside the
# executions, measures that drift.
YARDSTICK_S = 1.0
MIB = float(1 << 20)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "copies_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "output_mb": "MiB",
}

# Per-layer time metrics taken from spans: metric -> span name.
SPAN_METRICS = {
    "cli.import_s": "cli.import",
    "cli.load_config_s": "cli.load_config",
    "prover.mode_dist_s": "prover.mode_dist",
    "simulator.alias_build_s": "simulator.alias_build",
    "verifier.run_protocol_s": "verifier.run_protocol",
    "verifier.sample_format_s": "verifier.sample_format",
    "cli.report_write_s": "cli.report_write",
    "cli.samples_write_s": "cli.samples_write",
    "cli.transcript_write_s": "cli.transcript_write",
    "prover.echo_s": "prover.echo",
    **{f"analysis.suite_s.{s}": f"analysis.suite.{s}" for s in workloads.BOUND_SUITES},
}
# Per-layer time metrics taken from probes outside the replayed sequence.
PROBE_METRICS = {
    "prover.model_build_s": "s",
    "simulator.pick_ns": "ns",
    "verifier.run_protocol_s_nproc": "s",
    "verifier.transcript_records_s": "s",
}
# Counts, computed sizes and ratios derived from the replay.
DERIVED_METRICS = {
    "prover.output_components": "count",
    "simulator.alias_entries": "count",
    "simulator.table_mb": "MiB",
    "verifier.copies_per_s": "1/s",
    "verifier.chunks": "count",
    "verifier.samples": "count",
    "verifier.thread_speedup": "x",
    "verifier.column_mb": "MiB",
    "cli.transcript_records_per_s": "1/s",
    "analysis.violations": "count",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_s": "s",
    "ops_failed": "ratio",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_METRICS},
    **PROBE_METRICS,
    **DERIVED_METRICS,
}


@dataclass
class Execution:
    """One untraced execution of a workload's commands."""

    out_dir: Path
    wall_s: float = 0.0
    peak_rss_kib: int = 0
    exit_codes: list[int] = field(default_factory=list)
    stdout: dict[str, str] = field(default_factory=dict)


class Runner:
    """Starts and reaps the benchmark's child processes before a deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        pythonpath = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + pythonpath if pythonpath else "")

    def spawn(self, argv: list[str], stdout_path: Path, threads: str = "1") -> tuple[float, int, int]:
        """Run argv to completion; returns (wall seconds, exit code, peak RSS KiB).

        The wall time runs from just before the process is started to the
        moment it is reaped; os.wait4 gives this child's own peak RSS.
        """
        env = dict(self.env, FKLAB_THREADS=threads)
        with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                return 0.0, -1, 0
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss

    def execute(self, argvs: list[list[str]], out_dir: Path, threads: str = "1") -> Execution:
        """Run a workload's `fklab` commands one after another."""
        ex = Execution(out_dir)
        out_dir.mkdir(parents=True)
        for i, argv in enumerate(argvs):
            log = out_dir.parent / f"{out_dir.name}.cmd{i}.out"
            wall, code, rss = self.spawn([sys.executable, "-m", "fklab.cli", *argv], log, threads)
            ex.wall_s += wall
            ex.peak_rss_kib = max(ex.peak_rss_kib, rss)
            ex.exit_codes.append(code)
            ex.stdout[argv[0]] = log.read_text()
        return ex

    def replay(self, mode: str, argv: list[str], log: Path, run_id: str) -> tuple[float, dict]:
        """Run replay.py on one command; returns (wall seconds, its result)."""
        wall, code, _ = self.spawn(
            [sys.executable, str(REPLAY), "--mode", mode, "--run-id", run_id, "--", *argv], log
        )
        lines = log.read_text().splitlines()
        if code != 0 or not lines:
            return wall, {"exit_code": code if code else -1, "error": log.with_suffix(".err").read_text()[-2000:]}
        return wall, json.loads(lines[-1])


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def artifacts(workload, ex: Execution) -> dict:
    return {op: workloads.op_artifacts(workload, op, ex.out_dir, ex.stdout) for op in workloads.operations(workload)}


def replay_artifacts(workload, out_dir: Path, results: list[dict]) -> dict:
    """Artifacts of a traced replay, in the form artifacts() gives them."""
    stdout = {"echo-check": "".join(line + "\n" for r in results for line in r.get("stdout", []) if line.startswith("echo"))}
    return {op: workloads.op_artifacts(workload, op, out_dir, stdout) for op in workloads.operations(workload)}


class Ledger:
    """Operations attempted and failed, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, reasons_by_op: dict) -> None:
        for op, reasons in reasons_by_op.items():
            self.attempted += 1
            if reasons:
                self.failures.append(f"{label} {op}: {'; '.join(reasons)}")

    def compare(self, label: str, reference: dict, other: dict, codes_ok: bool) -> None:
        """Each operation of `other` must exit 0 and match `reference` byte for byte."""
        reasons = {}
        for op, files in reference.items():
            reasons[op] = [] if codes_ok else ["non-zero exit"]
            diff = [name for name, data in files.items() if other.get(op, {}).get(name) != data]
            if diff:
                reasons[op].append(f"bytes differ from the reference in {', '.join(diff)}")
        self.record(label, reasons)


def check_reference(workload, config, ex: Execution, ledger: Ledger, notes: dict) -> dict:
    """Check the reference execution's outputs; returns its artifacts."""
    reasons = workloads.check_outputs(workload, config, ex.out_dir, ex.stdout, notes)
    ops = workloads.operations(workload)
    if workload.certify:
        for op, code in zip(ops, ex.exit_codes):
            if code != 0:
                reasons[op].append(f"exit code {code}")
    elif ex.exit_codes != [0]:
        for op in ops:
            reasons[op].append(f"exit code {ex.exit_codes[0]}")
    ledger.record("reference", reasons)
    return artifacts(workload, ex)


def output_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def metric(value, unit: str, n: int, **extra) -> dict:
    return {"value": value, "unit": unit, "n": n, **extra}


def timing(values, unit: str) -> dict:
    """Median with its sample count; reads 0 with n=0 when every attempt
    failed (those failures are already in the ledger)."""
    if not values:
        return metric(0.0, unit, 0)
    summary = stats.summarize(values)
    return metric(summary["median"], unit, summary["n"], tail=summary["tail"], samples=list(values))


def run_untraced(workload, config, seconds: float, runner: Runner, work: Path, ledger: Ledger, notes: dict) -> dict:
    """End-to-end metrics from untraced processes."""
    setup_argv = workloads.commands(workload, config, work / "probe-out")[0]
    setup_samples: list[float] = []
    yardstick_walls: list[float] = []

    def yardstick(log: Path) -> None:
        wall, code, _ = runner.spawn([sys.executable, str(YARDSTICK)], log)
        if code != 0:
            # The run is failed; the execution next to it is left unscaled.
            ledger.attempted += 1
            ledger.failures.append(f"yardstick exited {code}: {log.with_suffix('.err').read_text()[-2000:]}")
            wall = YARDSTICK_S
        yardstick_walls.append(wall)

    def probe() -> None:
        _, result = runner.replay("setup", setup_argv, work / f"setup{len(setup_samples)}.out", "setup")
        if "setup_s" in result:
            setup_samples.append(result["setup_s"])
        else:
            ledger.attempted += 1
            ledger.failures.append(f"set-up probe failed: {result.get('error', '')}")

    # One untimed same-seed execution at FKLAB_THREADS=$(nproc) first: the
    # warm-up, the determinism check and the thread-count check in one (the
    # certify commands do not read FKLAB_THREADS, so for them it is a plain
    # rerun).
    rerun_out = work / "rerun-out"
    rerun = runner.execute(workloads.commands(workload, config, rerun_out), rerun_out, threads=str(nproc()))

    # The measuring window: SETUP_SAMPLES set-up probes spread between the
    # timed executions, so that both sample the same stretch of time, a
    # yardstick run right after each probe and before each execution, and
    # no execution started that would, at the median pace so far, end after
    # the window. Probe i and execution i are scaled by yardstick i.
    executions = []
    start = time.perf_counter()
    while True:
        if len(setup_samples) < SETUP_SAMPLES:
            probe()
        if executions:
            pace = statistics.median(ex.wall_s for ex in executions) + statistics.median(yardstick_walls)
            if time.perf_counter() - start + pace > seconds or time.monotonic() > runner.deadline:
                break
        out_dir = work / f"exec{len(executions)}"
        yardstick(work / f"yardstick{len(executions)}.out")
        executions.append(runner.execute(workloads.commands(workload, config, out_dir), out_dir))
    while len(setup_samples) < SETUP_SAMPLES and time.monotonic() < runner.deadline:
        probe()

    reference = check_reference(workload, config, executions[0], ledger, notes)
    for i, ex in enumerate(executions[1:], 1):
        ledger.compare(f"same-seed rerun {i}", reference, artifacts(workload, ex), all(c == 0 for c in ex.exit_codes))
        shutil.rmtree(ex.out_dir)
    ledger.compare(f"same-seed rerun at FKLAB_THREADS={nproc()}", reference, artifacts(workload, rerun),
                   all(c == 0 for c in rerun.exit_codes))

    raw_walls = [ex.wall_s for ex in executions]
    notes["host_speed"] = {"yardstick_s": yardstick_walls, "raw_wall_s": raw_walls, "raw_setup_s": setup_samples}
    wall = timing(stats.at_yardstick_speed(raw_walls, yardstick_walls, YARDSTICK_S), "s")
    if workload.certify:
        work_units = notes.get("instances", 0) + 1
        notes["copies_per_s"] = "bound-suite instances plus the echo check per second"
        throughput = stats.rate(work_units, wall["value"])
    else:
        work_units = workload.num_copies * workload.repetitions
        throughput = stats.copies_per_s(workload.num_copies, workload.repetitions, wall["value"])
    return {
        "wall_s": wall,
        "setup_s": timing(stats.at_yardstick_speed(setup_samples, yardstick_walls, YARDSTICK_S), "s"),
        "copies_per_s": metric(throughput, "1/s", wall["n"], work=work_units),
        "peak_rss_mb": timing([ex.peak_rss_kib / 1024.0 for ex in executions], "MiB"),
        "output_mb": metric(output_bytes(executions[0].out_dir) / MIB, "MiB", 1),
    }


def run_traced(workload, config, runner: Runner, work: Path, ledger: Ledger, notes: dict, tracer: stats.Tracer) -> tuple[dict, list]:
    """Per-layer metrics from a traced replay of the workload's commands."""
    ref = runner.execute(workloads.commands(workload, config, work / "exec0"), work / "exec0")
    reference = check_reference(workload, config, ref, ledger, notes)

    out = work / "trace-out"
    results, spans = [], []
    traced_total = attributed = 0.0
    for i, argv in enumerate(workloads.commands(workload, config, out)):
        wall, result = runner.replay("trace", argv, work / f"trace{i}.out", tracer.run_id)
        if "spans" not in result:
            ledger.record("traced replay", {argv[0]: [f"failed: {result.get('error', '')}"]})
            result = {"exit_code": result.get("exit_code", -1), "spans": []}
        drift = result.get("source_drift", [])
        ledger.record("replay source check", {
            argv[0]: [f"cli.{name} changed since the replay mirrored it" for name in drift]})
        traced_total += wall - result.get("probe_s", 0.0)
        attributed += stats.top_level_duration(result["spans"])
        offset = len(spans)
        spans.extend(dict(s, parent=None if s["parent"] is None else s["parent"] + offset) for s in result["spans"])
        results.append(result)
    ledger.compare("traced replay", reference, replay_artifacts(workload, out, results),
                   all(r.get("exit_code") == 0 for r in results))
    if not workload.certify:
        identical = results[0].get("thread_identical")
        ledger.record(f"run_protocol at {nproc()} threads",
                      {op: [] if identical else ["report differs from the single-thread one"]
                       for op in workloads.operations(workload)})

    by_name = stats.self_time_by_name(spans)
    layer = {}
    for name, span_name in SPAN_METRICS.items():
        entry = by_name.get(span_name)
        if entry is None:
            layer[name] = skipped_step(tracer, span_name, "s")
        else:
            layer[name] = metric(entry["self_s"], "s", entry["calls"])

    probes = {}
    for r in results:
        for k, v in r.get("probes", {}).items():
            probes.setdefault(k, []).extend(v)
    for name, unit in PROBE_METRICS.items():
        if name in probes:
            values = probes[name]
            layer[name] = (timing(values, unit) if name == "simulator.pick_ns"
                           else metric(sum(values), unit, len(values)))
        else:
            layer[name] = skipped_step(tracer, "probe." + name, unit)

    counts = {}
    for r in results:
        for k, v in r.get("counts", {}).items():
            counts[k] = counts.get(k, 0) + v
    run_s = by_name.get("verifier.run_protocol", {}).get("self_s", 0.0)
    nproc_s = sum(probes.get("verifier.run_protocol_s_nproc", []))
    records = counts.get("transcript_records", 0)
    transcript_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.transcript_write")
    # The transcript write builds each record and serialises it in one loop,
    # as cmd_run does; the records probe times the building alone.
    records_s = sum(probes.get("verifier.transcript_records_s", []))
    layer["cli.transcript_write_s"]["value"] -= records_s
    layer["cli.transcript_write_s"]["records_probe_s"] = records_s
    derived = {
        "prover.output_components": (counts.get("output_components", 0), {}),
        "simulator.alias_entries": (counts.get("alias_entries", 0), {}),
        "simulator.table_mb": (counts.get("table_bytes", 0) / MIB, {"computed": True}),
        "verifier.copies_per_s": (stats.rate(counts.get("copies", 0), run_s), {}),
        "verifier.chunks": (counts.get("chunks", 0), {}),
        "verifier.samples": (counts.get("samples", 0), {}),
        "verifier.thread_speedup": (run_s / nproc_s if nproc_s else 0.0, {"threads": nproc()}),
        "verifier.column_mb": (counts.get("column_bytes", 0) / MIB, {"computed": True}),
        "cli.transcript_records_per_s": (stats.rate(records, transcript_s), {}),
        "analysis.violations": (counts.get("violations", 0), {}),
        "bench.unattributed_s": (traced_total - attributed, {}),
        "bench.trace_overhead_s": (traced_total - ref.wall_s,
                                   {"traced_total_s": traced_total, "untraced_wall_s": ref.wall_s}),
    }
    for name, (value, extra) in derived.items():
        layer[name] = metric(value, DERIVED_METRICS[name], 1, **extra)
    return layer, spans


def skipped_step(tracer: stats.Tracer, span_name: str, unit: str) -> dict:
    """A step the workload does not contain: enter and leave an empty span so
    the metric is still measured; it reads the span's own cost."""
    with tracer.span(span_name) as span:
        pass
    seconds = span["end"] - span["start"]
    return metric(seconds * 1e9 if unit == "ns" else seconds, unit, 0, skipped=True)


def provenance(workload, seed: int, seconds: int, trace: int, config) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC_DIR / "fklab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "config": json.loads(config.read_text()) if config else None,
        "commands": workloads.commands(workload, config, Path("OUT")),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "fklab" / "cli.py").is_file():
        print(f"error: no fklab package under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = workloads.WORKLOADS[args.workload]
    compileall.compile_dir(str(SRC_DIR / "fklab"), quiet=1)

    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = WORK_DIR / run_id
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(deadline)
    ledger = Ledger()
    notes: dict = {}
    tracer = stats.Tracer(run_id)
    try:
        config = workloads.write_config(workload, args.seed, work)
        detail = {"provenance": provenance(workload, args.seed, args.seconds, args.trace, config)}
        if args.trace:
            metrics, spans = run_traced(workload, config, runner, work, ledger, notes, tracer)
        else:
            metrics = run_untraced(workload, config, args.seconds, runner, work, ledger, notes)
            spans = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(ledger.failures)
    attempted = max(ledger.attempted, 1)
    if args.trace:
        metrics["ops_failed"] = metric(failed / attempted, "ratio", attempted)
    declared = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    emitted = {name: m["unit"] for name, m in metrics.items()}
    if emitted != declared:
        raise RuntimeError(f"emitted metrics {emitted} differ from the declared ones {declared}")
    detail.update(metrics=metrics, notes=notes, failures=ledger.failures)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{run_id}.json").write_text(
        json.dumps(dict(detail, spans=spans + tracer.spans), indent=1) + "\n"
    )

    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']} (n={m['n']}{', skipped' if m.get('skipped') else ''})")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
