"""sphkol benchmark: time to a verified solution, end to end and per layer.

    python3 bench/run.py --workload two_jet_n16 --seed 1 --seconds 15 --trace 0

Runs one workload's operation (generated inputs -> program -> gated result)
over and over for --seconds.  With --trace 0 it reports the end-to-end metrics
(solve_s, setup_s, peak_rss_mb); with --trace 1 it alternates untraced and
traced operations and reports per-layer self times, call counts, the tracing
overhead and the per-degree kernel table.  The last line of standard output is
the result as JSON; the line before it records the environment and every
operation's time.  Workloads and metrics are declared in BENCHMARK.json, the
seed commit's figures in bench/baseline.json.  A traced run also writes its
spans to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import program

HERE = Path(__file__).resolve().parent
OUT = program.ROOT / ".bench_out"
SETUP_PROBES = 9
LAYERS = ("harmonics", "sht", "operators", "pde_solver", "reduced_ode", "cli")


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in program.THREAD_VARS},
        "commit": git_commit(program.ROOT),
    }


def setup_seconds(workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload],
        capture_output=True, text=True, timeout=150, cwd=program.ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: set-up probe failed with exit code {proc.returncode}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def end_to_end(workload, seed: int, seconds: float, outdir: Path):
    import workloads

    setup, outcomes = [], []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        # Spread the set-up probes over the run, so both metrics sample the same machine state.
        if len(setup) < SETUP_PROBES and time.perf_counter() - start >= len(setup) * seconds / SETUP_PROBES:
            setup.append(setup_seconds(workload.name))
            continue
        inputs = workload.make_input(seed, len(outcomes), outdir)
        outcomes.append(workloads.attempt(workload, inputs, outdir))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_seconds(workload.name))
    times = [o.seconds for o in outcomes if o.error is None] or [o.seconds for o in outcomes]
    metrics = {
        "solve_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return outcomes, metrics, {"setup_s": setup}


def op_metrics(summary: dict, outcome, wrapped: set[str]) -> dict:
    """Per-layer metrics of one traced operation; an entry point that no longer exists is left out."""
    wall = summary["wall_s"]
    covered = sum(summary["self_s"].values())
    if abs(covered - wall) > 1e-6 + 1e-9 * wall:
        raise RuntimeError(f"self times sum to {covered!r} s, traced wall time is {wall!r} s")
    present = {name.split(".", 1)[0] for name in wrapped}
    out = {f"{layer}.self_s": (summary["self_s"].get(layer, 0.0), "s") for layer in LAYERS if layer in present}

    def entry(metric, name, unit, value):
        if name in wrapped:
            calls = summary["calls"].get(name, 0)
            out[metric] = (value(calls, summary["inclusive_s"].get(name, 0.0)), unit)

    def mean_ms(calls, total):
        return 1e3 * total / calls if calls else 0.0

    entry("harmonics.build_grid_s", "harmonics.build_grid", "s", lambda n, t: t)
    entry("operators.convection_calls", "operators.convection", "count", lambda n, t: n)
    entry("operators.convection_ms", "operators.convection", "ms", mean_ms)
    entry("pde_solver.steps", "pde_solver.Stepper.step", "count", lambda n, t: n)
    entry("pde_solver.step_ms", "pde_solver.Stepper.step", "ms", mean_ms)
    entry("reduced_ode.extract_coupling_ms", "reduced_ode.extract_coupling", "ms", mean_ms)
    entry("reduced_ode.propagate_forced_s", "reduced_ode.propagate_forced", "s", lambda n, t: t)
    if "sht" in present:
        out["sht.synth_calls"] = (summary["synth_calls"], "count")
        out["sht.analysis_calls"] = (summary["analysis_calls"], "count")
    out["cli.bytes_written"] = (outcome.bytes_written, "bytes")
    out["trace.wall_s"] = (wall, "s")
    out["bench.self_s"] = (summary["self_s"].get("bench", 0.0), "s")
    return out


def per_layer(workload, seed: int, seconds: float, outdir: Path):
    import kernels
    import tracing
    import workloads

    tracer = tracing.Tracer()
    plain, traced, per_op, first_spans = [], [], [], None
    deadline = time.perf_counter() + seconds
    index = 0
    # Untraced and traced operations alternate, so the overhead compares like with like.
    while not (plain and traced) or time.perf_counter() < deadline:
        inputs = workload.make_input(seed, index, outdir)
        if index % 2 == 0:
            plain.append(workloads.attempt(workload, inputs, outdir))
        else:
            tracer.install()
            try:
                outcome = tracer.root()(workloads.attempt, workload, inputs, outdir)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            first_spans = first_spans or spans
            traced.append(outcome)
            per_op.append(op_metrics(tracing.summarize(spans, tracer.names), outcome, tracer.wrapped))
        index += 1

    metrics = {
        name: (statistics.median(op[name][0] for op in per_op), unit)
        for name, (_, unit) in per_op[0].items()
    }
    metrics["trace.overhead_s"] = (
        statistics.median(o.seconds for o in traced) - statistics.median(o.seconds for o in plain),
        "s",
    )
    table, roundtrip = kernels.kernel_table(seed)
    metrics.update({name: (value, "ms") for name, value in table.items()})
    details = {
        "traced_ops": [{k: v for k, (v, _) in op.items()} for op in per_op],
        "transform_roundtrip_error": roundtrip,
        "span_names": tracer.names,
        "first_op_spans": first_spans,
    }
    return plain + traced, metrics, details, roundtrip <= kernels.ROUNDTRIP_TOL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sphkol benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program.pin_threads()
    program.load()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = environment()

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{workload.name}-") as tmp:
        os.environ["SPHKOL_OUT"] = tmp
        outdir = Path(tmp)
        if args.trace:
            outcomes, metrics, details, kernels_ok = per_layer(workload, args.seed, args.seconds, outdir)
        else:
            outcomes, metrics, details = end_to_end(workload, args.seed, args.seconds, outdir)
            kernels_ok = True

    failures = Counter(o.error.split(":", 1)[0] for o in outcomes if o.error is not None)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "op_seconds": [o.seconds for o in outcomes],
        "failures": failures,
        "first_failure": next((o.error for o in outcomes if o.error is not None), None),
    }
    if args.trace:
        trace_file = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({**record, **details}) + "\n")
    else:
        record.update(details)
    print(json.dumps(record))
    failed = sum(failures.values())
    print(json.dumps({
        "correct": failed == 0 and kernels_ok,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
