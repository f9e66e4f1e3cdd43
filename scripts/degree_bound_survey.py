#!/usr/bin/env python3
"""Survey the obstruction degree bound across base/target combinations.

For every graded nilpotent fixture and every target preset, run the CLI's
germ stage (series, obstruction system, gauge identities and the Betti
cross-check) and report the attained maximal obstruction degree next to
the bound nu + 1.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from germkit import fixtures
from germkit.cli import Run
from germkit.formats import ParsedAlgebra, algebra_to_dict
from germkit.kuranishi import TensorDgla

BASES = {
    "abelian3": fixtures.abelian(3),
    "h3": fixtures.heisenberg3(),
    "h5": fixtures.heisenberg5(),
    "filiform4": fixtures.filiform4(),
    "q_plus_h3": fixtures.q_plus_heisenberg3(),
}
TARGETS = {
    "sl2": fixtures.sl2(),
    "gl2": fixtures.gl(2),
    "h3": fixtures.heisenberg3(),
    "abelian2": fixtures.abelian(2),
}


def main() -> None:
    header = f"{'base':<11} {'nu':>2} {'target':<9} {'m':>3} {'max deg':>7} {'bound':>5}  verdict"
    print(header)
    print("-" * len(header))
    for base_name, base in BASES.items():
        # The base is built in code, so the run is handed its parse stage; it
        # grades and splits the base once and solves the germ per target,
        # handed as the run's target stage.
        run = Run(argparse.Namespace(command="kuranishi", strategy="metric", cap=None, json=None))
        run.parsed = ParsedAlgebra(
            name=base_name, algebra=base, grading=None, nilradical=None,
            complement=None, characters=None, digest=None,
        )
        grading, dec = run.grading[0], run.split
        assert grading is not None
        for target_name, target in TARGETS.items():
            start = time.time()
            run.target = (algebra_to_dict(target, target_name), target)
            _, summary = run.solve(dec, TensorDgla(dec.dga, target), None)
            nu, bound = grading.depth, summary["degree_bound"]
            ok = bound is not None and bound["satisfied"]
            print(
                f"{base_name:<11} {nu:>2} {target_name:<9} "
                f"{summary['variables']:>3} {summary['max_degree']:>7} {nu + 1:>5}  "
                f"{'ok' if ok else 'VIOLATION'} ({time.time() - start:.2f}s)"
            )

if __name__ == "__main__":
    main()
