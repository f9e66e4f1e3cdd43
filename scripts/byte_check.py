#!/usr/bin/env python3
"""Hash the ``kuranishi``, ``pipeline``, ``mc-check``, ``decompose``,
``check``, ``nilshadow`` and ``subdga`` JSON output over a fixed matrix.

The matrix runs ``germkit.cli.main`` in-process, ``--json`` to stdout, on:

- 20 inputs: the 11 fixture files, and 9 algebras generated by
  ``germbench/inputs.py`` (h5, h7, h9, L6, L7, T x| h5 and T x| h7 at seed
  0; L6 and h5 at seed 1, with the generator streams the benchmark uses);
- the subcommands ``kuranishi`` and ``pipeline``;
- the targets sl2, gl:2 and gl:3;
- the options: default, ``--strategy pivot`` and ``--cap 3``.

That is 360 runs.  Every germ a ``kuranishi`` run with target sl2 or gl:2
prints is then read back by ``mc-check`` at three points (see
``mc_points``): an axis point, a generic rational point and a Gaussian
point.  Each input is also split in every degree by ``decompose
--strategy metric`` and ``--strategy pivot``: 40 runs.  Each run's exit
code, stdout and stderr are hashed, with the input directories replaced by
fixed tokens, as tests/test_golden_cli.py does.  The script prints the run
count, the exit-code counts and one sha256 over the per-run hashes.

A second line extends the matrix by ``check`` on each of the 20 inputs and
``nilshadow`` on each input that carries nilradical and complement data, the
classification and nilshadow layers; it counts and hashes all runs, the
first line's included.

A third line extends the second line's matrix by the sub-DGA germ path and
truncated germs read back: ``kuranishi --subdga`` on each input that
carries characters, at every target and option, with the characters written
to a selection file; ``mc-check`` of those germs at ``mc_points``; and one
two-variable point (first and last variable at 1) on each ``--cap 3`` germ,
of the first line's matrix and of the sub-DGA runs.  It counts and hashes
all runs, the first two lines' included.

A fourth line extends the third line's matrix by ``subdga --json`` on each
input that carries characters, once with the characters of the input file
and once with the selection file the third line writes, passed through
``--characters``: the selection and its duality-type check.  It counts and
hashes all runs, the first three lines' included.

A fifth line extends the fourth line's matrix by two algebras over Q(i)
(see ``gaussian``), written to a subdirectory of the generated inputs:
h(5) with [X1, Y1] = i Z and [X2, Y2] = (1 - i/2) Z, and the rotation
algebra [T, Zp] = i Zp, [T, Zm] = -i Zm with torsion characters of
modulus 4.  Each runs through the same matrix as the inputs above: the
germs, their read-backs, ``check`` and ``decompose``, and for the
rotation algebra ``nilshadow``, ``subdga`` and ``kuranishi --subdga``.
So Gaussian division and ``sparse_rank``'s realification run in the byte
check.  It counts and hashes all runs, the first four lines' included.

A change that must keep every output byte prints the same lines before and
after; ``scripts/byte_check.expected`` holds them, and CI runs

    python scripts/byte_check.py | diff - scripts/byte_check.expected

on every supported Python.  It takes 9-17 s on a 2-vCPU host with Python
3.11; under cProfile its largest single function is the series
(``kuranishi_series``, 5.6 s of 27 s), ahead of writing the JSON
(``render_json``, 4.5 s, which writes each germ's phi and obstruction
records as text).  It is not part of the test suite.

    python3 scripts/byte_check.py
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
sys.path.insert(0, str(ROOT / "src"))

from germkit import cli

COMMANDS = ("kuranishi", "pipeline")
STRATEGIES = ("metric", "pivot")
TARGETS = ("sl2", "gl:2", "gl:3")
OPTIONS = ((), ("--strategy", "pivot"), ("--cap", "3"))
# Germs read back by mc-check (gl:3 germs are the slowest to write and add
# no parse or evaluation path of their own).
MC_TARGETS = ("sl2", "gl:2")


def _load_inputs():
    """germbench/inputs.py, imported from its file without touching it."""
    spec = importlib.util.spec_from_file_location(
        "germbench_inputs", ROOT / "germbench" / "inputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def generated() -> dict[str, dict]:
    """File stem -> algebra dict for the 9 generated inputs."""
    inputs = _load_inputs()
    out = {}
    for seed, ks, ns, solv in ((0, (2, 3, 4), (6, 7), (2, 3)), (1, (2,), (6,), ())):
        for k in ks:
            out[f"s{seed}_h{2 * k + 1}"] = inputs.heisenberg(k, inputs.rng_for(seed, f"h{k}"))
        for n in ns:
            out[f"s{seed}_L{n}"] = inputs.filiform(n, inputs.rng_for(seed, f"L{n}"))
        for k in solv:
            out[f"s{seed}_solv_h{2 * k + 1}"] = inputs.solvable_heisenberg(
                k, inputs.rng_for(seed, f"solv{k}")
            )
    return out


def gaussian() -> dict[str, dict]:
    """File stem -> algebra dict for the two Q(i) inputs of the fifth line."""

    def bracket(left, right, coef, result):
        return {"left": left, "right": right, "result": [{"basis": result, "coef": coef}]}

    h5_i = {
        "name": "h5_i",
        "basis": ["X1", "Y1", "X2", "Y2", "Z"],
        "field": "Q(i)",
        "brackets": [bracket("X1", "Y1", "i", "Z"), bracket("X2", "Y2", "1-1/2*i", "Z")],
    }
    rot4 = {
        "name": "rot4",
        "basis": ["T", "Zp", "Zm"],
        "field": "Q(i)",
        "brackets": [bracket("T", "Zp", "i", "Zp"), bracket("T", "Zm", "-i", "Zm")],
        "nilradical": [["0", "1", "0"], ["0", "0", "1"]],
        "complement": [["1", "0", "0"]],
        "characters": {
            "rank": 0,
            "exponents": [[], [], []],
            "torsion": [{"modulus": 4, "residues": [0, 1, -1]}],
        },
    }
    return {"qi_h5_i": h5_i, "qi_rot4": rot4}


def mc_points(variables: list[str]) -> list[str]:
    """The axis, generic rational and Gaussian ``--point`` of a germ: the
    last variable alone; every variable, with varied signs and
    denominators; every variable complex, some real or imaginary only."""
    if not variables:
        return [""] * 3
    axis = f"{variables[-1]}=-3/2"
    generic = ",".join(
        f"{v}={(-1) ** k * (k % 4 + 1)}/{k % 3 + 2}" for k, v in enumerate(variables)
    )
    values = ("1/2+i", "-2-1/3*i", "2*i", "3", "-1/4+3/2*i")
    gaussian = ",".join(f"{v}={values[k % 5]}" for k, v in enumerate(variables))
    return [axis, generic, gaussian]


def run(argv: list[str], tokens: dict[str, str]) -> tuple[int, str, str]:
    """(exit code, sha256 of exit code, stdout and stderr, stdout) of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    stdout = out.getvalue()
    texts = [stdout, err.getvalue()]
    for path, token in tokens.items():
        texts = [t.replace(path, token) for t in texts]
    blob = json.dumps([code, *texts], ensure_ascii=False).encode("utf-8")
    return code, hashlib.sha256(blob).hexdigest(), stdout


class Tally:
    """Exit-code counts and one sha256 over the per-run hashes."""

    def __init__(self) -> None:
        self.codes: collections.Counter[int] = collections.Counter()
        self.total = hashlib.sha256()

    def add(self, code: int, digest: str) -> None:
        self.codes[code] += 1
        self.total.update(digest.encode("ascii"))

    def line(self) -> str:
        counts = ", ".join(f"{code}: {n}" for code, n in sorted(self.codes.items()))
        return (
            f"runs {sum(self.codes.values())}; exit codes {{{counts}}}; "
            f"sha256 {self.total.hexdigest()}"
        )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        gen_dir = pathlib.Path(tmp)
        for stem, data in generated().items():
            (gen_dir / f"{stem}.json").write_text(json.dumps(data), encoding="utf-8")
        germ_path = gen_dir / "germ" / "germ.json"
        selection_path = germ_path.with_name("selection.json")
        germ_path.parent.mkdir()
        gaussian_dir = gen_dir / "gaussian"
        gaussian_dir.mkdir()
        for stem, data in gaussian().items():
            (gaussian_dir / f"{stem}.json").write_text(json.dumps(data), encoding="utf-8")
        tokens = {str(gen_dir): "<generated>", str(FIXTURES): "<fixtures>"}
        files = sorted(FIXTURES.glob("*.json")) + sorted(gen_dir.glob("*.json"))
        # Each input with the first output line that counts its runs.
        inputs = [(path, 0) for path in files]
        inputs += [(path, 4) for path in sorted(gaussian_dir.glob("*.json"))]
        tallies = [Tally() for _ in range(5)]

        def record(argv: list[str], line: int) -> tuple[int, str]:
            """Run ``argv`` and count it on output line ``line`` (0-based),
            or on the current input's first line if that is later, and on
            every later line, which extend its matrix."""
            code, digest, stdout = run(argv, tokens)
            for tally in tallies[max(line, first):]:
                tally.add(code, digest)
            return code, stdout

        def read_back(stdout: str, options: tuple[str, ...], line: int) -> None:
            germ_path.write_text(stdout, encoding="utf-8")
            variables = json.loads(stdout)["variables"]
            for point in mc_points(variables):
                record(["mc-check", str(germ_path), "--point", point, "--json"], line)
            if "--cap" in options and len(variables) > 1:
                pair = f"{variables[0]}=1,{variables[-1]}=1"
                record(["mc-check", str(germ_path), "--point", pair, "--json"], 2)

        for path, first in inputs:
            for command in COMMANDS:
                for target in TARGETS:
                    for options in OPTIONS:
                        argv = [command, str(path), "--target", target, *options, "--json"]
                        code, stdout = record(argv, 0)
                        if command == "kuranishi" and target in MC_TARGETS and not code:
                            read_back(stdout, options, 0)
            for strategy in STRATEGIES:
                record(["decompose", str(path), "--strategy", strategy, "--json"], 0)
            record(["check", str(path), "--json"], 1)
            data = json.loads(path.read_text(encoding="utf-8"))
            if "nilradical" in data and "complement" in data:
                record(["nilshadow", str(path), "--json"], 1)
            if "basis" not in data or "characters" not in data:
                continue
            selection_path.write_text(json.dumps(data["characters"]), encoding="utf-8")
            for target in TARGETS:
                for options in OPTIONS:
                    argv = [
                        "kuranishi", str(path), "--subdga", str(selection_path),
                        "--target", target, *options, "--json",
                    ]
                    code, stdout = record(argv, 2)
                    if target in MC_TARGETS and not code:
                        read_back(stdout, options, 2)
            record(["subdga", str(path), "--json"], 3)
            record(["subdga", str(path), "--characters", str(selection_path), "--json"], 3)
    for tally in tallies:
        print(tally.line())


if __name__ == "__main__":
    main()
