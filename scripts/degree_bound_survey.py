#!/usr/bin/env python3
"""Survey the obstruction degree bound across base/target combinations.

For every graded nilpotent fixture and every target preset, solve the
deformation series and report the attained maximal obstruction degree next
to the bound nu + 1.
"""

from __future__ import annotations

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from germkit import fixtures
from germkit.cedga import Dga
from germkit.cli import obtain_grading
from germkit.decomp import GERM_TOP, split_complex
from germkit.kuranishi import kuranishi_series, obstruction_system, verify_degree_bound
from germkit.liealg import lower_central_series

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
        grading, _ = obtain_grading(None, base, lower_central_series(base))
        assert grading is not None
        dec = split_complex(Dga(base), "metric", grading, top=GERM_TOP)
        nu = grading.depth
        for target_name, target in TARGETS.items():
            start = time.time()
            series = kuranishi_series(dec, target)
            system = obstruction_system(series)
            ok = series.terminated and verify_degree_bound(system, nu) is None
            print(
                f"{base_name:<11} {nu:>2} {target_name:<9} "
                f"{len(series.variables):>3} {system.max_degree:>7} {nu + 1:>5}  "
                f"{'ok' if ok else 'VIOLATION'} ({time.time() - start:.2f}s)"
            )


if __name__ == "__main__":
    main()
