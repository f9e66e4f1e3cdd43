"""Frozen digests of every subcommand's run on every fixture.

Each case calls ``germkit.cli.main`` in-process and hashes (exit code,
stdout, stderr).  Every case runs twice: with ``--json`` (key
``"<algebra> <case>"``) and without it, printing the text report (key
``"<algebra> <case> text"``).  Paths in the output are replaced by fixed tokens, so the
digests do not depend on where the checkout lives.  A refactor must leave
every digest unchanged; a change that alters output on purpose rewrites the
table with ``python3 tests/test_golden_cli.py --write`` and says why.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
TABLE = pathlib.Path(__file__).with_name("golden_cli.json")
CHARACTERS = FIXTURES / "diag_weight_characters.json"
GERM_DIR = pathlib.Path(tempfile.gettempdir()) / "germkit-golden"

ALGEBRAS = sorted(
    p.stem for p in FIXTURES.glob("*.json") if p != CHARACTERS
)

# case id -> [subcommand, options...]; the fixture path follows the subcommand
COMMANDS = {
    "check": ["check"],
    "nilshadow": ["nilshadow"],
    "decompose-metric": ["decompose", "--strategy", "metric"],
    "decompose-pivot": ["decompose", "--strategy", "pivot"],
    "subdga": ["subdga", "--characters", str(CHARACTERS)],
    "kuranishi-sl2": ["kuranishi", "--target", "sl2"],
    "kuranishi-gl2": ["kuranishi", "--target", "gl:2"],
    "kuranishi-subdga-sl2": ["kuranishi", "--subdga", str(CHARACTERS), "--target", "sl2"],
    "pipeline-sl2": ["pipeline", "--target", "sl2"],
    "pipeline-gl2": ["pipeline", "--target", "gl:2"],
}
MC_CHECK = "mc-check"
TEXT = "text"


def _invoke(argv: list[str]) -> tuple[int, str, str]:
    from germkit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _scrub(text: str) -> str:
    return text.replace(str(GERM_DIR), "<germs>").replace(str(FIXTURES), "<fixtures>")


@functools.lru_cache(maxsize=None)
def run_case(algebra: str, command: str, *mode: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one case, with paths scrubbed; the
    text mode drops ``--json``."""
    json_flag = [] if mode == (TEXT,) else ["--json"]
    if command == MC_CHECK:
        code, germ, _ = run_case(algebra, "kuranishi-sl2")
        assert code == 0, f"{algebra}: no sl2 germ to check"
        GERM_DIR.mkdir(exist_ok=True)
        path = GERM_DIR / f"{algebra}_sl2.json"
        path.write_text(germ, encoding="utf-8")
        code, out, err = _invoke([MC_CHECK, str(path), "--point", "t1=1", *json_flag])
    else:
        path = FIXTURES / f"{algebra}.json"
        code, out, err = _invoke([COMMANDS[command][0], str(path), *COMMANDS[command][1:], *json_flag])
    return code, _scrub(out), _scrub(err)


def digest(key: str) -> str:
    code, out, err = run_case(*key.split(" "))
    blob = json.dumps([code, out, err], ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def all_cases() -> list[str]:
    """Every base case, plus mc-check wherever the sl2 germ was written,
    each in JSON and in text."""
    keys = [f"{a} {c}" for a in ALGEBRAS for c in COMMANDS]
    keys += [f"{a} {MC_CHECK}" for a in ALGEBRAS if run_case(a, "kuranishi-sl2")[0] == 0]
    return keys + [f"{key} {TEXT}" for key in keys]


FROZEN: dict[str, str] = (
    json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}
)


def test_table_covers_every_case():
    assert sorted(FROZEN) == sorted(all_cases())


@pytest.mark.parametrize("key", sorted(FROZEN))
def test_golden_digest(key):
    assert digest(key) == FROZEN[key], run_case(*key.split(" "))[2]


# sha256 of the scrubbed stdout of ``pipeline --target gl:3 --json`` on
# germbench's seeded L7 (seed 0): a deep series (nu = 6) into a
# 9-dimensional target, about 15 MB of JSON.
DEEP_TARGET = "b6ca45a3c2e126b59d8c31b905dd326595d05e56666d6491c381f576576b1d06"


def test_deep_target_digest(tmp_path):
    from conftest import germbench_inputs

    inputs = germbench_inputs()
    path = tmp_path / "L7.json"
    path.write_text(json.dumps(inputs.filiform(7, inputs.rng_for(0, "L7"))), encoding="utf-8")
    code, out, err = _invoke(["pipeline", str(path), "--target", "gl:3", "--json"])
    assert (code, err) == (0, "")
    out = out.replace(str(tmp_path), "<input>")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEEP_TARGET


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 tests/test_golden_cli.py --write")
    table = {key: digest(key) for key in all_cases()}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {TABLE}")
