"""Self-tests of the benchmark: its inputs repeat for a seed, its gates catch
wrong results, program failures are counted rather than fatal, and its
output matches BENCHMARK.json.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

import program

program.load()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sphkol import cli, pde_solver, reduced_ode, sht  # noqa: E402

TINY_TWO_JET = workloads.ManifestWorkload(
    "tiny_two_jet", N=8, nu=0.5, t_end=0.01, dt=1e-3,
    field_amplitude=0.5, field_decay=0.4, snapshot_stride=2,
)
TINY_COUPLING = replace(workloads.WORKLOADS["coupling_n16"], N=8, t_end=1.0 / 64)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    first, again, other = (wl.make_input(s, 3, tmp_path) for s in (7, 7, 8))
    if isinstance(first, dict):
        assert first == again and first != other
        assert all(c["m"] >= 0 for c in first["init"])
    else:
        assert np.array_equal(first.coeffs, again.coeffs)
        assert not np.array_equal(first.coeffs, other.coeffs)


def two_jet_report(tmp_path, monkeypatch):
    monkeypatch.setenv("SPHKOL_OUT", str(tmp_path))
    _, report = cli.run_manifest(TINY_TWO_JET.make_input(1, 0, tmp_path))
    assert workloads.manifest_gate(report, tmp_path, TINY_TWO_JET.nu, TINY_TWO_JET.t_end) is None
    return report


def test_manifest_gate_rejects_failed_or_missing_checks(tmp_path, monkeypatch):
    report = two_jet_report(tmp_path, monkeypatch)
    failing = json.loads(json.dumps(report))
    failing["checks"][0]["pass"] = False
    assert "checks failed" in workloads.manifest_gate(failing, tmp_path, 0.5, TINY_TWO_JET.t_end)
    missing = {**report, "checks": report["checks"][:1]}
    assert "checks missing" in workloads.manifest_gate(missing, tmp_path, 0.5, TINY_TWO_JET.t_end)


@pytest.mark.parametrize(
    "column,wrong,verdict",
    [
        ("norm_ge3", lambda rows: rows[0]["norm_ge3"], "above its bound"),  # no decay at all
        ("norm_eq1", lambda rows: repr(float(rows[-1]["norm_eq1"]) + 1e-8), "drifted"),
        ("t", lambda rows: repr(float(rows[-1]["t"]) / 2), "ends at"),
    ],
)
def test_manifest_gate_rejects_a_wrong_trajectory(tmp_path, monkeypatch, column, wrong, verdict):
    report = two_jet_report(tmp_path, monkeypatch)
    path = tmp_path / report["files"]["trajectory"]
    rows = workloads.read_trajectory(path)
    rows[-1][column] = wrong(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert verdict in workloads.manifest_gate(report, tmp_path, TINY_TWO_JET.nu, TINY_TWO_JET.t_end)


def test_a_perturbed_degree2_vector_is_a_failed_op(tmp_path, monkeypatch):
    field = TINY_COUPLING.field(1, 0)
    assert workloads.attempt(TINY_COUPLING, field, tmp_path).error is None
    propagate = reduced_ode.propagate_forced

    def perturbed(*args):
        traj = propagate(*args)
        traj[-1, 2] += 1e-4 * np.linalg.norm(traj[-1])
        return traj

    monkeypatch.setattr(reduced_ode, "propagate_forced", perturbed)
    outcome = workloads.attempt(TINY_COUPLING, field, tmp_path)
    assert outcome.error.startswith("gate: closure relative error")


@pytest.mark.parametrize(
    "exc",
    [pde_solver.IntegrationError("non-finite", 0.1), sht.MeanModeError("mean"), ZeroDivisionError()],
)
def test_program_errors_are_failed_ops(tmp_path, monkeypatch, exc):
    def fail(manifest):
        raise exc

    monkeypatch.setattr(cli, "run_manifest", fail)
    outcome = workloads.attempt(TINY_TWO_JET, TINY_TWO_JET.make_input(1, 0, tmp_path), tmp_path)
    assert outcome.error == type(exc).__name__


def test_other_errors_stop_the_benchmark(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_manifest", lambda manifest: {}["missing"])
    with pytest.raises(KeyError):
        workloads.attempt(TINY_TWO_JET, TINY_TWO_JET.make_input(1, 0, tmp_path), tmp_path)


def test_self_times_partition_the_wall_time():
    names = ["bench.op", "sht.synthesize", "sht.table_synthesis", "operators.convection"]
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (3, 5.0, 6.0, 0)]
    summary = tracing.summarize(spans, names)
    assert summary["self_s"] == {"bench": 6.0, "sht": 3.0, "operators": 1.0}
    assert sum(summary["self_s"].values()) == summary["wall_s"] == 10.0
    assert summary["synth_calls"] == 1


def test_tracer_records_and_restores_entry_points(tmp_path, monkeypatch):
    original = cli.run_manifest
    monkeypatch.setenv("SPHKOL_OUT", str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcome = tracer.root()(workloads.attempt, TINY_TWO_JET, TINY_TWO_JET.make_input(1, 0, tmp_path), tmp_path)
    finally:
        tracer.uninstall()
    assert outcome.error is None and cli.run_manifest is original
    metrics = run.op_metrics(tracing.summarize(tracer.take(), tracer.names), outcome, tracer.wrapped)
    assert metrics["pde_solver.steps"][0] == 10
    assert metrics["operators.convection_calls"][0] == 40
    assert metrics["sht.synth_calls"][0] == 16 * 10
    assert metrics["sht.analysis_calls"][0] == 4 * 10


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_matches_the_declaration(trace, section, capsys, monkeypatch):
    monkeypatch.setenv("SPHKOL_OUT", "")
    declared = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "two_jet_n16", "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared[section]}
