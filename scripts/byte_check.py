#!/usr/bin/env python3
"""Hash the ``kuranishi`` and ``pipeline`` JSON output over a fixed matrix.

The matrix runs ``germkit.cli.main`` in-process, ``--json`` to stdout, on:

- 20 inputs: the 11 fixture files, and 9 algebras generated by
  ``germbench/inputs.py`` (h5, h7, h9, L6, L7, T x| h5 and T x| h7 at seed
  0; L6 and h5 at seed 1, with the generator streams the benchmark uses);
- the subcommands ``kuranishi`` and ``pipeline``;
- the targets sl2, gl:2 and gl:3;
- the options: default, ``--strategy pivot`` and ``--cap 3``.

That is 360 runs.  Each run's exit code, stdout and stderr are hashed, with
the input directories replaced by fixed tokens, as tests/test_golden_cli.py
does.  The script prints the run count, the exit-code counts and one sha256
over the per-run hashes.  A change that must keep every output byte prints
the same line before and after.  It takes minutes (L7 x gl:3 dominates), so
it is not part of the test suite.

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
TARGETS = ("sl2", "gl:2", "gl:3")
OPTIONS = ((), ("--strategy", "pivot"), ("--cap", "3"))


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


def run(argv: list[str], tokens: dict[str, str]) -> tuple[int, str]:
    """(exit code, sha256 of exit code, stdout and stderr) of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    texts = [out.getvalue(), err.getvalue()]
    for path, token in tokens.items():
        texts = [t.replace(path, token) for t in texts]
    blob = json.dumps([code, *texts], ensure_ascii=False).encode("utf-8")
    return code, hashlib.sha256(blob).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        gen_dir = pathlib.Path(tmp)
        for stem, data in generated().items():
            (gen_dir / f"{stem}.json").write_text(json.dumps(data), encoding="utf-8")
        tokens = {str(gen_dir): "<generated>", str(FIXTURES): "<fixtures>"}
        files = sorted(FIXTURES.glob("*.json")) + sorted(gen_dir.glob("*.json"))
        codes: collections.Counter[int] = collections.Counter()
        total = hashlib.sha256()
        for path in files:
            for command in COMMANDS:
                for target in TARGETS:
                    for options in OPTIONS:
                        argv = [command, str(path), "--target", target, *options, "--json"]
                        code, digest = run(argv, tokens)
                        codes[code] += 1
                        total.update(digest.encode("ascii"))
    counts = ", ".join(f"{code}: {n}" for code, n in sorted(codes.items()))
    print(f"runs {sum(codes.values())}; exit codes {{{counts}}}; sha256 {total.hexdigest()}")


if __name__ == "__main__":
    main()
