"""Set-up time of one workload, measured in a fresh interpreter.

Set-up is everything paid once before steady stepping: importing sphkol,
building the grid, and filling its Legendre and Cartesian tables and every
lazily filled cache.  It is measured as the time to import, build the grid and
take a first step, minus the time of a second, identical step on that grid.
numpy's own import is not counted.

    python3 bench/setup_probe.py --workload two_jet_n16

prints one JSON line, ``{"setup_s": ...}``.  run.py runs it several times.
"""

from __future__ import annotations

import argparse
import json
import time

import program


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    program.pin_threads()
    import numpy  # noqa: F401  -- imported before the clock starts

    start = time.perf_counter()
    program.load()
    import workloads
    from sphkol import harmonics

    imported = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload]
    field = workload.field(0, 0)
    t0 = time.perf_counter()
    grid = harmonics.build_grid(workload.N)
    workload.probe_step(field, grid)
    t1 = time.perf_counter()
    workload.probe_step(field, grid)
    t2 = time.perf_counter()
    print(json.dumps({"setup_s": (imported - start) + (t1 - t0) - (t2 - t1)}))


if __name__ == "__main__":
    main()
