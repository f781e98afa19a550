"""Run the standard verification scenarios and write reports under out/.

Usage: python scripts/run_verification_checks.py [outdir]
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sphkol.cli import run_manifest  # noqa: E402


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    manifests = {
        "two_jet_conserved": {
            "scenario": "two_jet",
            "cfg": {"nu": 0.5, "amplitude": 1.0, "N": 16, "t_end": 4.0, "snapshot_stride": 100},
            "init": [
                {"n": 1, "m": 0, "re": 1.0, "im": 0.0},
                {"n": 1, "m": 1, "re": 0.5, "im": 0.0},
                {"n": 2, "m": 1, "re": 0.3, "im": 0.0},
                {"n": 4, "m": 2, "re": 0.1, "im": 0.0},
            ],
            "output_dir": str(outdir / "two_jet_conserved"),
        },
        "two_jet_zonal_decay": {
            "scenario": "two_jet",
            "cfg": {"nu": 0.5, "amplitude": 1.0, "N": 16, "t_end": 2.0, "snapshot_stride": 50},
            "init": [{"n": 3, "m": 0, "re": 0.01, "im": 0.0}],
            "output_dir": str(outdir / "two_jet_zonal_decay"),
        },
        "one_jet_decay": {
            "scenario": "one_jet",
            "cfg": {
                "nu": 0.5, "amplitude": 1.0, "N": 16, "t_end": 3.0,
                "snapshot_stride": 50, "jet_order": "one_jet",
            },
            "init": [
                {"n": 1, "m": 0, "re": 0.8, "im": 0.0},
                {"n": 2, "m": 0, "re": 0.3, "im": 0.0},
                {"n": 3, "m": 1, "re": 0.1, "im": 0.05},
            ],
            "output_dir": str(outdir / "one_jet_decay"),
        },
        "reduced_equilibrium": {
            "scenario": "reduced_only",
            "cfg": {"nu": 1.0, "amplitude": 1.0, "N": 4},
            # degree-1 coefficient 2 sqrt(6 pi) makes the off-diagonal parameter exactly 1
            "init": [{"n": 1, "m": 1, "re": 2.0 * math.sqrt(6.0 * math.pi), "im": 0.0}],
            "output_dir": str(outdir / "reduced_equilibrium"),
        },
        "identity_oracles": {
            "scenario": "identity_oracles",
            "seed": 7,
            "lmax": 16,
            "output_dir": str(outdir / "identity_oracles"),
        },
    }
    overall = 0
    for name, doc in manifests.items():
        code, report = run_manifest(doc)
        state = "ok" if code == 0 else f"exit {code}"
        print(f"{name}: {state}")
        for check in report["checks"]:
            if check["measured"] is None:
                print(f"  [N/A] {check['name']}: {check['note']}")
                continue
            flag = "PASS" if check["pass"] else "FAIL"
            print(f"  [{flag}] {check['name']}: {check['measured']:.3e}")
        overall = max(overall, code)
    return overall


if __name__ == "__main__":
    raise SystemExit(main())
