"""Print the sha256 of every output of a fixed set of small runs.

The set covers every scenario and subcommand at N = 8: two_jet, rotating
(Omega = 1.5) and one_jet (its init read from a field file), each
error-controlled and at a given dt, reduced_only and identity_oracles through
``cli.main(["run", ...])``, which calls ``cli.run_manifest``, and the
equilibrium, oracles and fit subcommands through ``cli.main``, and four
``pde_solver.run_with_coupling`` runs, two_jet (twice) and one_jet at N = 8
and rotating (Omega = 0.7) at N = 16, whose sample times, couplings M and f
and records are hashed as arrays.  The rotating run's steps cover more
samples than one extract_coupling chunk.  The three ``*_uneven`` runs keep a
snapshot stride that does not divide their lattice count, so that the end
snapshot falls off the stride on each path: two_jet_uneven and
two_jet_dt_uneven (stride 7 of 640 and of 100 lattice times) and
coupling_uneven (stride 6 of 64); every other run's stride divides its count.
N = 8 grids take the matmul longitude stage; three fixed steps of a two_jet
run at N = 48 cover the FFT one.  All run in one process, in a temporary
directory.

Usage: python scripts/output_digests.py

Prints ``<sha256>  <run>/<file>`` for each file a run writes and for its
stdout, and ``<code>  <run>/exit`` for its exit code; the coupling runs print
``<sha256>  <run>/<array>``, for runs coupling, coupling_one_jet,
coupling_uneven and coupling_rotating.  Two checkouts give the
same lines exactly when their outputs are byte-identical, so

    python scripts/output_digests.py > a.txt   (in each checkout)
    diff a.txt b.txt

checks that a change keeps every output.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sphkol import cli, pde_solver  # noqa: E402
from sphkol.harmonics import build_grid  # noqa: E402

INIT = [
    {"n": 1, "m": 0, "re": 0.8},
    {"n": 1, "m": 1, "re": 0.2, "im": 0.4},
    {"n": 2, "m": 0, "re": 0.5},
    {"n": 2, "m": 1, "re": -0.3, "im": 0.1},
    {"n": 2, "m": 2, "re": 0.05, "im": -0.2},
    {"n": 3, "m": 1, "re": 0.1, "im": 0.05},
    {"n": 4, "m": 3, "re": -0.04, "im": 0.02},
    {"n": 8, "m": 5, "re": 0.01, "im": -0.01},
]
CFG = {"nu": 1.0, "amplitude": 1.0, "N": 8, "t_end": 1.0, "snapshot_stride": 5}


def manifests(root: Path) -> dict:
    """The manifest of each run by name; writes the one_jet field file."""
    field_file = root / "init.json"
    cli.save_field(cli.field_from_entries(8, INIT), field_file)
    flow = {"cfg": CFG, "init": INIT, "seed": 7}
    docs = {
        "two_jet": {**flow, "scenario": "two_jet"},
        "two_jet_dt": {**flow, "scenario": "two_jet", "cfg": {**CFG, "dt": 0.01}},
        "two_jet_uneven": {**flow, "scenario": "two_jet", "cfg": {**CFG, "snapshot_stride": 7}},
        "two_jet_dt_uneven": {**flow, "scenario": "two_jet", "cfg": {**CFG, "dt": 0.01, "snapshot_stride": 7}},
        "one_jet": {**flow, "scenario": "one_jet", "init": str(field_file)},
        "one_jet_dt": {**flow, "scenario": "one_jet", "init": str(field_file), "cfg": {**CFG, "dt": 0.01}},
        "rotating": {**flow, "scenario": "rotating", "Omega": 1.5},
        "rotating_dt": {**flow, "scenario": "rotating", "Omega": 1.5, "cfg": {**CFG, "dt": 0.01}},
        "two_jet_fft": {**flow, "scenario": "two_jet", "init": INIT + [{"n": 48, "m": 31, "re": 1e-3, "im": 2e-3}],
                        "cfg": {**CFG, "N": 48, "t_end": 0.003, "dt": 0.001, "snapshot_stride": 1}},
        "reduced_only": {"scenario": "reduced_only", "cfg": {"nu": 1.0, "amplitude": 1.0, "N": 8}, "init": INIT},
        "identity_oracles": {"scenario": "identity_oracles", "lmax": 8, "seed": 3},
    }
    return {name: {**doc, "output_dir": str(root / name)} for name, doc in docs.items()}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def coupling_digests(name: str, N: int = 8, t_end: float = 0.25, dt: float = 1.0 / 256, **cfg) -> list[str]:
    """Digests of the raw bytes of one coupling run: sample times, M, f and every record field."""
    cfg = pde_solver.SolverConfig(**{"nu": 1.0, "amplitude": 1.0, "N": N, "t_end": t_end, "dt": dt,
                                     "snapshot_stride": 8, **cfg})
    records, coupling = pde_solver.run_with_coupling(cli.field_from_entries(N, INIT), cfg, build_grid(N))
    fields = [[r.t, r.norm_eq1, r.norm_eq2_dist, r.norm_ge3, *r.mode2.view(float), *r.mode1.view(float),
               r.steps, r.rejected] for r in records]
    arrays = {"times": coupling.times, "M": coupling.M, "f": coupling.f, "records": np.array(fields)}
    return [f"{digest(array.tobytes())}  {name}/{key}" for key, array in arrays.items()]


def main() -> int:
    os.environ.pop("SPHKOL_OUT", None)  # each run writes to its own output_dir
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        runs = {}
        for name, doc in manifests(root).items():
            path = root / f"{name}.json"
            path.write_text(json.dumps(doc))
            runs[name] = ["run", str(path)]
        runs["equilibrium"] = ["equilibrium", "--nu", "1", "--a", "1", "--alpha-re", "0.3", "--alpha-im", "0.2",
                               "--b", "0.5", "--omega", "1.5"]
        runs["oracles"] = ["oracles", "--seed", "5", "--lmax", "8"]
        runs["fit"] = ["fit", "--input", str(root / "two_jet" / "trajectory.csv"), "--column", "norm_ge3",
                       "--window", "0.2:1", "--reference", "-10", "--tolerance", "0.5"]
        for name, argv in runs.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            outdir = root / name
            files = sorted(outdir.iterdir()) if outdir.is_dir() else []
            lines += [f"{digest(path.read_bytes())}  {name}/{path.name}" for path in files]
            lines.append(f"{digest(out.getvalue().encode())}  {name}/stdout")
            lines.append(f"{code}  {name}/exit")
    lines += coupling_digests("coupling") + coupling_digests("coupling_one_jet", jet_order="one_jet")
    lines += coupling_digests("coupling_uneven", snapshot_stride=6)
    lines += coupling_digests("coupling_rotating", N=16, t_end=1.0 / 32, dt=1.0 / 2048, Omega=0.7)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
