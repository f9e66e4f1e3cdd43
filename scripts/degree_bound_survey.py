#!/usr/bin/env python3
"""Survey the obstruction degree bound across base/target combinations.

For every graded nilpotent fixture file and every target, run the CLI's
germ stage (series, obstruction system, gauge identities and the Betti
cross-check) and report the attained maximal obstruction degree next to
the bound nu + 1.  The table is deterministic; CI diffs it against
``scripts/degree_bound_survey.expected``:

    python scripts/degree_bound_survey.py | diff - scripts/degree_bound_survey.expected
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from germkit.cli import Run
from germkit.formats import algebra_to_dict
from germkit.liealg import LieAlgebra

FIXTURES = ROOT / "fixtures"
BASES = ("abelian3", "h3", "h5", "filiform4", "q_plus_h3")
# --target specs; abelian2 has neither a file nor a preset, so its run is
# handed its target stage.
TARGETS = ("sl2", "gl:2", str(FIXTURES / "h3.json"), "abelian2")
ABELIAN2 = LieAlgebra(("e1", "e2"), {})


def main() -> None:
    header = f"{'base':<11} {'nu':>2} {'target':<9} {'m':>3} {'max deg':>7} {'bound':>5}  verdict"
    print(header)
    print("-" * len(header))
    for base in BASES:
        for spec in TARGETS:
            run = Run(argparse.Namespace(
                command="kuranishi", file=str(FIXTURES / f"{base}.json"), target=spec,
                strategy="metric", cap=None, json=None,
            ))
            if spec == "abelian2":
                run.target = (algebra_to_dict(ABELIAN2, spec), ABELIAN2)
            _, summary = run.germ
            nu, bound = run.grading[0].depth, summary["degree_bound"]
            ok = bound is not None and bound["satisfied"]
            print(
                f"{base:<11} {nu:>2} {run.target[0]['name']:<9} "
                f"{summary['variables']:>3} {summary['max_degree']:>7} {nu + 1:>5}  "
                f"{'ok' if ok else 'VIOLATION'}"
            )


if __name__ == "__main__":
    main()
