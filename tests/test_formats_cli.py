import argparse
import collections
import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest
from conftest import FIXTURE_ALGEBRAS, abelian
from hypothesis import given
from hypothesis import strategies as st

from germkit import cli, fixtures
from germkit.cli import main
from germkit.errors import ParseError
from germkit.formats import (
    algebra_to_dict,
    germ_from_dict,
    parse_algebra_dict,
    parse_point,
    render_json,
)
from germkit.kuranishi import mc_residual
from germkit.multipoly import PointPowers
from germkit.scalars import scalar

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
SCHEMA = json.loads(
    (
        pathlib.Path(__file__).resolve().parents[1]
        / "src"
        / "germkit"
        / "schemas"
        / "report.schema.json"
    ).read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- round trips -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FIXTURE_ALGEBRAS))
def test_algebra_round_trip(name):
    algebra = FIXTURE_ALGEBRAS[name]
    data = algebra_to_dict(algebra, "roundtrip")
    parsed = parse_algebra_dict(json.loads(render_json(data)))
    assert parsed.algebra.labels == algebra.labels
    assert parsed.algebra.nonzero_brackets() == algebra.nonzero_brackets()


def test_parse_rejects_unknown_label():
    data = {
        "name": "bad",
        "basis": ["X", "Y"],
        "brackets": [
            {"left": "X", "right": "W", "result": [{"coef": "1", "basis": "Y"}]}
        ],
    }
    with pytest.raises(ParseError, match="W"):
        parse_algebra_dict(data)


def test_parse_rejects_duplicate_bracket():
    data = {
        "name": "dup",
        "basis": ["X", "Y", "Z"],
        "brackets": [
            {"left": "X", "right": "Y", "result": [{"coef": "1", "basis": "Z"}]},
            {"left": "Y", "right": "X", "result": [{"coef": "2", "basis": "Z"}]},
        ],
    }
    with pytest.raises(ParseError, match="duplicate"):
        parse_algebra_dict(data)


def test_parse_point():
    point = parse_point("t1=1, t3=-2/3", ("t1", "t2", "t3"))
    assert point == [scalar(1), scalar(0), scalar("-2/3")]
    with pytest.raises(ParseError):
        parse_point("t9=1", ("t1",))
    with pytest.raises(ParseError, match="variable 't1' given twice"):
        parse_point("t1=1, t1=2", ("t1", "t2"))


# -- CLI commands ------------------------------------------------------------------


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", str(FIXTURES / "h3.json"))
    assert code == 0
    assert "nilpotent=True nu=2" in out
    assert "unimodular=True" in out


def test_check_json_validates_against_schema(capsys):
    code, out, _ = run(capsys, "check", str(FIXTURES / "h3.json"), "--json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["schema_version"] == 1


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"basis": ["X"], "brackets": 3}')
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2 and "expected a list" in err


def test_precondition_exit_code(tmp_path, capsys):
    notlie = tmp_path / "notlie.json"
    notlie.write_text(
        json.dumps(
            {
                "name": "notlie",
                "basis": ["e1", "e2", "e3"],
                "brackets": [
                    {
                        "left": "e1",
                        "right": "e2",
                        "result": [{"coef": "1", "basis": "e3"}],
                    },
                    {
                        "left": "e1",
                        "right": "e3",
                        "result": [{"coef": "1", "basis": "e1"}],
                    },
                ],
            }
        )
    )
    code, _, err = run(capsys, "check", str(notlie))
    assert code == 1 and "Jacobi" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["kuranishi", "h3.json", "--target", "sl2"],
        ["pipeline", "filiform4.json", "--json", "-"],
    ],
)
def test_series_cap_is_bounded_by_the_packed_exponent_width(capsys, argv):
    # Packed exponents reach degree 2 * cap in fields of at most 64 bits:
    # 2^63 - 1 is the largest cap, and a larger one is a precondition.
    command, name, *rest = argv
    argv = [command, str(FIXTURES / name), *rest]
    code, _, err = run(capsys, *argv, "--cap", str(2**63 - 1))
    assert code == 0, err
    for cap in (2**63, 10**23):
        code, _, err = run(capsys, *argv, "--cap", str(cap))
        assert code == 1 and f"series cap must be below 2^63 = {2**63}" in err, err


def test_nilshadow_command(capsys):
    code, out, _ = run(capsys, "nilshadow", str(FIXTURES / "solv_heisenberg.json"))
    assert code == 0
    assert "[X, Y] = 1*Z" in out
    assert "nu=2" in out


def test_nilshadow_needs_splitting_data(capsys):
    code, _, err = run(capsys, "nilshadow", str(FIXTURES / "h3.json"))
    assert code == 2 and "nilradical" in err


def test_decompose_command(capsys):
    code, out, _ = run(capsys, "decompose", str(FIXTURES / "h3.json"))
    assert code == 0
    assert "betti numbers: [1, 2, 2, 1]" in out
    assert "degree-2 cocycles confined to weight <= 3: True" in out


def test_decompose_pivot_strategy(capsys):
    code, out, _ = run(
        capsys, "decompose", str(FIXTURES / "filiform4.json"), "--strategy", "pivot"
    )
    assert code == 0
    assert "betti numbers: [1, 2, 2, 2, 1]" in out


def test_subdga_command(capsys):
    code, out, _ = run(
        capsys,
        "subdga",
        str(FIXTURES / "q_plus_h3.json"),
        "--characters",
        str(FIXTURES / "diag_weight_characters.json"),
    )
    assert code == 0
    assert "8 monomials" in out and "duality-type check: pass" in out


@pytest.mark.parametrize(
    "key, value, field",
    [
        ("torsion", 5, "characters.torsion"),
        # int() would truncate these to the exponents [1] and [-1].
        ("exponents", [[0], [1.9], [-1.9], [0]], "characters.exponents[1]"),
        ("exponents", [[0], ["1"], [-1], [0]], "characters.exponents[1]"),
        ("exponents", [[0], [1], [-1], [False]], "characters.exponents[3]"),
        ("rank", True, "characters.rank"),
        ("torsion", [{"modulus": 2.5, "residues": [0, 1, 1, 0]}], "characters.torsion[0].modulus"),
    ],
    ids=["torsion-int", "float-exponents", "string-exponent", "bool-exponent", "bool-rank", "float-modulus"],
)
def test_non_integer_character_data_is_a_parse_error(tmp_path, capsys, key, value, field):
    characters = json.loads((FIXTURES / "solv_heisenberg.json").read_text())["characters"]
    characters[key] = value
    path = tmp_path / "characters.json"
    path.write_text(json.dumps(characters))
    code, out, err = run(
        capsys, "subdga", str(FIXTURES / "solv_heisenberg.json"), "--characters", str(path)
    )
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and f"{field}:" in err


def test_bare_character_object_selects_under_subdga_and_kuranishi(tmp_path, capsys):
    wrapped = FIXTURES / "diag_weight_characters.json"
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(json.loads(wrapped.read_text())["characters"]))
    base = str(FIXTURES / "q_plus_h3.json")
    code, out, _ = run(capsys, "subdga", base, "--characters", str(bare))
    assert code == 0 and "8 monomials" in out
    outputs = []
    for selection in (wrapped, bare):
        code, out, err = run(
            capsys, "kuranishi", base, "--target", "sl2", "--subdga", str(selection)
        )
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def _rotation_algebra(modulus, residues):
    """R x|_rot R^2 over Q(i), diagonalised: [T, Zp] = i Zp, [T, Zm] = -i Zm,
    nilradical (Zp, Zm), complement T, with torsion characters."""
    return {
        "name": f"rot{modulus}",
        "basis": ["T", "Zp", "Zm"],
        "field": "Q(i)",
        "brackets": [
            {"left": "T", "right": "Zp", "result": [{"basis": "Zp", "coef": "i"}]},
            {"left": "T", "right": "Zm", "result": [{"basis": "Zm", "coef": "-i"}]},
        ],
        "nilradical": [["0", "1", "0"], ["0", "0", "1"]],
        "complement": [["1", "0", "0"]],
        "characters": {
            "rank": 0,
            "exponents": [[], [], []],
            "torsion": [{"modulus": modulus, "residues": list(residues)}],
        },
    }


@pytest.mark.parametrize(
    "modulus, residues, subgerm",
    [
        (2, (0, 1, -1), ([1, 1, 1, 1], 3, True)),
        (4, (0, 1, -1), ([1, 1, 1, 1], 3, True)),
        (2, (0, 0, 0), ([1, 3, 3, 1], 9, False)),
    ],
    ids=["order-2", "order-4", "trivial"],
)
def test_lattices_of_one_group_give_different_subgerms(tmp_path, capsys, modulus, residues, subgerm):
    """Gamma_k = Z^2 x| Z, with the generator t rotating Z^2 by a rotation of
    order k, is a lattice in G = R x|_rot R^2.  At t, Ad's semisimple part
    has the eigenvalues zeta_k on Zp, zeta_k^-1 on Zm and 1 on T, with
    zeta_k = exp(2 pi i / k): characters of finite order, so rank 0 and one
    torsion component of modulus k with residues (0, 1, -1).  For k = 2
    and k = 4 the monomials whose residues sum to 0 mod k are 1, T,
    Zp^Zm and T^Zp^Zm: one per degree, a smooth 3-variable sub-germ.  For
    k = 1 (Gamma = Z^3) every character is trivial, residues (0, 0, 0) at
    any modulus, and the sub-germ is the 9-variable ambient germ."""
    path = tmp_path / "rot.json"
    path.write_text(json.dumps(_rotation_algebra(modulus, residues)))
    code, out, err = run(capsys, "pipeline", str(path), "--target", "sl2", "--json")
    assert code == 0, err
    stages = {stage["stage"]: stage for stage in json.loads(out)["stages"]}
    assert stages["germ"]["variables"] == 9
    sub = stages["character_subdga"]
    assert (sub["degree_counts"], sub["variables"], sub["smooth"]) == subgerm
    assert sub["embedding_agree"]


def test_closed_stdout_is_a_quiet_success():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "germkit", "decompose", str(FIXTURES / "h5.json")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # the reader leaves before the first line is written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == ""


def test_a_check_run_imports_no_code_generation():
    # The records are plain __slots__ classes, so a fresh interpreter runs
    # ``check`` without importing dataclasses or what it pulls in (inspect).
    # -S keeps site-packages' .pth files from importing them first.
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        "import germkit.cli\n"
        f"germkit.cli.main(['check', {str(FIXTURES / 'h3.json')!r}])\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_unwritable_json_path_is_reported(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(
        capsys, "check", str(FIXTURES / "h3.json"), "--json", str(target)
    )
    assert code == 2 and out == ""
    assert str(target) in err and "Traceback" not in err


def test_a_file_written_in_slices_holds_the_stdout_bytes(tmp_path, capsys, monkeypatch):
    # Slices of 7 characters cut the germ's 12 "⊗" labels into slices of
    # both widths; the file still holds exactly what stdout gets.
    argv = ["kuranishi", str(FIXTURES / "h3.json"), "--target", "sl2", "--json"]
    code, printed, _ = run(capsys, *argv)
    assert code == 0 and printed.count("⊗") == 12
    monkeypatch.setattr(cli, "_WRITE_SLICE", 7)
    written = tmp_path / "germ.json"
    code, out, _ = run(capsys, *argv, str(written))
    assert code == 0 and out == f"wrote {written}\n"
    assert written.read_bytes() == printed.encode("utf-8")


def test_json_on_stdout_is_written_in_slices(monkeypatch):
    # "--json -" goes out in the slices a file gets, so the text layer never
    # encodes the whole document at once.
    class Recorder:
        def __init__(self):
            self.pieces = []

        def write(self, text):
            self.pieces.append(text)

        def flush(self):
            pass

    report = {"coordinates": [f"h2[{k}]⊗E{k % 9}" for k in range(20000)], "text": []}
    recorder = Recorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    cli.emit(report, argparse.Namespace(json="-"))
    assert len(recorder.pieces) > 1
    assert max(map(len, recorder.pieces)) <= cli._WRITE_SLICE
    assert "".join(recorder.pieces) == render_json(report)


def test_kuranishi_json_and_mc_check(tmp_path, capsys):
    germ_path = tmp_path / "germ.json"
    code, out, _ = run(
        capsys,
        "kuranishi",
        str(FIXTURES / "h3.json"),
        "--target",
        "sl2",
        "--json",
        str(germ_path),
    )
    assert code == 0
    germ = json.loads(germ_path.read_text())
    assert germ["kind"] == "germ" and germ["terminated"]
    assert germ["obstructions"]["max_degree"] == 3
    assert germ["obstructions"]["degree_bound"] == {"bound": 3, "satisfied": True}

    code, out, _ = run(capsys, "mc-check", str(germ_path), "--point", "t1=1,t2=2")
    assert code == 0
    assert "obstruction values vanish: True" in out
    assert "flatness residual zero: True" in out

    code, out, _ = run(capsys, "mc-check", str(germ_path), "--point", "t1=1,t5=1")
    assert code == 0
    assert "obstruction values vanish: False" in out
    assert "residual" in out


def test_mc_check_reports_a_truncated_germ_at_an_unflat_point(tmp_path, capsys):
    # A truncated series' obstructions hold only modulo degree > cap, so
    # they may vanish at a point that is not flat.
    germ_path = tmp_path / "germ.json"
    code, _, _ = run(
        capsys, "kuranishi", str(FIXTURES / "filiform4.json"), "--target", "sl2",
        "--cap", "2", "--json", str(germ_path),
    )
    assert code == 0 and not json.loads(germ_path.read_text())["terminated"]
    code, out, err = run(capsys, "mc-check", str(germ_path), "--point", "t1=1,t5=1")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "point: t1=1,t5=1",
        "obstruction values vanish: True",
        "flatness residual zero: False",
        "gauge condition zero: True",
        "residual: (4)*e1∧e3⊗E",
    ]
    code, out, _ = run(capsys, "mc-check", str(germ_path), "--point", "t1=1,t5=1", "--json")
    report = json.loads(out)
    assert code == 0 and report["obstructions_vanish"] and not report["residual_is_zero"]
    assert report["terminated_series"] is False


@pytest.mark.parametrize("point, consistent", [("t1=1,t5=1", False), ("t5=1", True)])
def test_mc_check_reports_whether_vanishing_obstructions_mean_flatness(
    tmp_path, capsys, point, consistent
):
    # On a truncated germ, vanishing obstructions at a point that is not
    # flat are reported as inconsistent, not as an error.
    germ_path = tmp_path / "germ.json"
    code, _, _ = run(
        capsys, "kuranishi", str(FIXTURES / "filiform4.json"), "--target", "sl2",
        "--cap", "2", "--json", str(germ_path),
    )
    assert code == 0
    code, out, _ = run(capsys, "mc-check", str(germ_path), "--point", point, "--json")
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert code == 0 and report["obstructions_vanish"]
    assert report["consistent"] is consistent


def test_mc_check_rejects_a_terminated_germ_whose_obstructions_disagree(tmp_path, capsys):
    # Zero obstruction polynomials against the phi of h3 x sl2: the file
    # claims a flat point that its phi does not give.
    germ_path, germ = _h3_germ(tmp_path, capsys)
    assert germ["terminated"]
    polynomials = germ["obstructions"]["polynomials"]
    germ["obstructions"]["polynomials"] = [[] for _ in polynomials]
    germ_path.write_text(json.dumps(germ))
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, "mc-check", str(germ_path), "--point", "t1=1,t5=1", *json_flag)
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: {germ_path}: obstructions vanish but the point is not flat")
        assert "the file's obstructions disagree with its phi" in err


def test_mc_check_rejects_a_decimal_point_value(tmp_path, capsys):
    germ_path = tmp_path / "germ.json"
    code, _, _ = run(
        capsys, "kuranishi", str(FIXTURES / "h3.json"), "--target", "sl2",
        "--json", str(germ_path),
    )
    assert code == 0
    code, out, err = run(capsys, "mc-check", str(germ_path), "--point", "t1=1.5")
    assert code == 2 and out == ""
    assert err.startswith("parse error: point.t1: ")


def test_mc_check_rejects_a_repeated_point_variable(tmp_path, capsys):
    germ_path = tmp_path / "germ.json"
    code, _, _ = run(
        capsys, "kuranishi", str(FIXTURES / "h3.json"), "--target", "sl2",
        "--json", str(germ_path),
    )
    assert code == 0
    code, out, err = run(capsys, "mc-check", str(germ_path), "--point", "t1=1,t1=2")
    assert code == 2 and out == ""
    assert err == "parse error: point: variable 't1' given twice\n"


def test_unexpected_exception_is_exit_3_without_traceback(monkeypatch, capsys):
    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_check", broken)
    code, out, err = run(capsys, "check", str(FIXTURES / "h3.json"), "--json")
    assert code == 3 and out == ""
    assert err == "internal error in check: KeyError: 'boom'\n"


def test_exit_3_names_the_stage_it_escaped_from(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "split_complex", broken)
    code, out, err = run(capsys, "pipeline", str(FIXTURES / "h3.json"), "--target", "sl2")
    assert code == 3 and out == ""
    assert err == "internal error in pipeline, stage split: RuntimeError: boom\n"
    # The selection's split runs inside the sub-DGA germ stage.
    code, out, err = run(
        capsys, "kuranishi", str(FIXTURES / "q_plus_h3.json"), "--target", "sl2",
        "--subdga", str(FIXTURES / "diag_weight_characters.json"),
    )
    assert code == 3 and out == ""
    assert err == "internal error in kuranishi, stage sub_germ: RuntimeError: boom\n"


def test_invariant_violation_names_the_stage(monkeypatch, capsys):
    monkeypatch.setattr(cli, "gauge_identity_check", lambda series: "forced")
    code, out, err = run(capsys, "pipeline", str(FIXTURES / "h3.json"), "--target", "sl2")
    assert code == 3 and out == ""
    assert err == (
        "internal invariant violated in pipeline, stage germ: "
        "gauge identity failed: forced\n"
    )


def test_embedding_witness_is_exit_3_naming_the_point(monkeypatch, capsys):
    witness = "residuals disagree at X⊗H + Z⊗H: selection gives 0, ambient gives 0"
    monkeypatch.setattr(cli, "linear_embedding_check", lambda sub, ambient: (7, witness))
    code, out, err = run(
        capsys, "pipeline", str(FIXTURES / "solv_heisenberg.json"), "--target", "sl2"
    )
    assert code == 3 and out == ""
    assert err == (
        "internal invariant violated in pipeline, stage embedding: "
        f"inclusion does not preserve residuals: {witness}\n"
    )


def test_parser_is_built_once():
    # Handlers are looked up per call: the exit-3 test above patches one.
    assert cli.build_parser() is cli.build_parser()


def test_germ_file_reconstruction(tmp_path, capsys):
    germ_path = tmp_path / "germ.json"
    code, _, _ = run(
        capsys,
        "kuranishi",
        str(FIXTURES / "h3.json"),
        "--target",
        "sl2",
        "--json",
        str(germ_path),
    )
    assert code == 0
    germ = germ_from_dict(json.loads(germ_path.read_text()))
    point = PointPowers([scalar(1), scalar(0), scalar(0), scalar(0), scalar(0), scalar("1/2")])
    omega = germ.phi.eval(point)
    residual = mc_residual(germ.tdgla, omega)
    values = [p.eval(point) for p in germ.polynomials]
    # a = H, b = F/2: [H,[H,F]] = 4F-type obstruction appears
    assert any(values)
    assert residual


# The values a report holds: no floats, and str keys only.
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text()),
    lambda children: st.one_of(
        st.lists(children),
        st.tuples(children, children),
        st.dictionaries(st.text(), children),
    ),
    max_leaves=30,
)


# Shaped like engine output: long runs of exponents and labels, exponents
# next to booleans, labels with ⊗, quotes and control characters, empty
# containers and tuples.
LABELS = st.text(st.sampled_from('t1h2[]⊗∧Eé "\\\n\t\x00\x1f\u2028'), max_size=8)
ENGINE_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.integers(), LABELS),
    lambda children: st.one_of(
        st.lists(st.integers(0, 3), min_size=20, max_size=80),
        st.lists(st.integers(), min_size=2, max_size=10),
        st.lists(LABELS, min_size=10, max_size=30),
        st.lists(st.one_of(st.booleans(), st.integers(0, 1))),
        st.lists(children),
        st.tuples(children, children),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.just(()),
        st.dictionaries(LABELS, children),
    ),
    max_leaves=40,
)


@given(st.one_of(JSON_VALUES, ENGINE_VALUES))
def test_render_json_is_the_stdlib_indented_dump(data):
    expected = json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert render_json(data) == expected


def test_render_json_keeps_booleans_out_of_integer_runs():
    # [1, 0] fills the call's int texts before True and False come by.
    data = {"a": [1, 0], "b": [True, 1, False, 0], "c": [True, False], "d": (None, "⊗")}
    assert render_json(data) == json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert '"b": [\n    true,\n    1,\n    false,\n    0\n  ]' in render_json(data)


@pytest.mark.parametrize(
    "data",
    [1.5, [0, 0.5], {"a": {1: "b"}}, {"a": [True, 2, 0.0]}, [scalar(1)],
     {"a": type("Int", (int,), {})(3)}, {"a": Exception()}],
)
def test_render_json_refuses_what_no_report_holds(data):
    # No float, subclass or non-str key: render_json raises rather than
    # write them differently from json.dumps.
    with pytest.raises(TypeError):
        render_json(data)


def test_pipeline_report_renders_without_the_stdlib_encoder(monkeypatch, capsys):
    # A report holds only str, int, bool and None leaves under str keys, and
    # render_json writes it without json.dumps or a JSONEncoder.
    argv = ("pipeline", str(FIXTURES / "solv_heisenberg.json"), "--target", "gl:3", "--json")
    code, expected, _ = run(capsys, *argv)
    assert code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("the stdlib JSON encoder was called")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected


def _first_phi_term(germ):
    return germ["phi"][0]["terms"][0]


def _split_first_block(germ):
    """Move half the degree-1 terms into a second degree-1 block."""
    first = germ["phi"][0]
    germ["phi"].insert(1, {"degree": 1, "terms": first["terms"][3:]})
    del first["terms"][3:]


def _zero_twin(germ, before):
    """Give the first record of polynomials[0] a twin with coefficient 0,
    just before or just after it."""
    records = germ["obstructions"]["polynomials"][0]
    records.insert(0 if before else 1, {**records[0], "coefficient": "0"})


@pytest.mark.parametrize(
    "corrupt, field",
    [
        (lambda g: g.pop("base_algebra"), "base_algebra"),
        (lambda g: _first_phi_term(g)["entries"][0].update(monomial_index=99), "monomial_index"),
        (lambda g: _first_phi_term(g).update(exponents=[1]), "exponents"),
        (lambda g: g.update(strategy="foo"), "strategy"),
        (lambda g: g["obstructions"]["polynomials"][0][0].update(exponents=[2]), "polynomials[0]"),
        # int() would read these as [0, 1, 1, 1, 0, 0], the record's true exponents.
        (lambda g: g["obstructions"]["polynomials"][0][0].update(exponents=[0, 1.5, 1.5, 1.5, 0, 0]), "polynomials[0]"),
        (lambda g: g["obstructions"]["polynomials"][0][0].update(exponents=[0, True, 1, 1, 0, 0]), "polynomials[0]"),
        # Read as one block, the last would silently replace the first.
        (_split_first_block, "phi[1]: degree: 1 repeats an earlier block"),
        (lambda g: g["phi"][0].update(degree=0), "phi[0]: degree: 0 is below 1"),
        (lambda g: g["phi"][1].update(degree=3), "phi[1].terms[0]: exponents: total 2 is not the degree 3"),
        (lambda g: g["phi"][0]["terms"].append(_first_phi_term(g)), "phi[0].terms[6]: exponents: repeat an earlier term"),
        (lambda g: _first_phi_term(g)["entries"].append(_first_phi_term(g)["entries"][0]),
         "phi[0].terms[0].entries[1]: repeats an earlier (monomial_index, target)"),
        # Z without X∧Y: the selection is not closed under d.
        (lambda g: g.update(subdga_monomials=[[3]]), "subdga_monomials: not closed under d"),
        (lambda g: g.update(terminated="false"), "terminated: missing or not a boolean"),
        (lambda g: g.pop("terminated"), "terminated: missing or not a boolean"),
        (lambda g: g.update(variables=["t1"] * len(g["variables"])), "variables: names must be distinct"),
        (lambda g: g["obstructions"]["polynomials"][0][0].update(exponents=[0, -1, 1, 1, 0, 0]),
         "polynomials[0]: bad polynomial record"),
        (lambda g: g["obstructions"]["polynomials"][0].append(g["obstructions"]["polynomials"][0][0]),
         "polynomials[0]: duplicate exponent vector"),
        # A zero coefficient repeats an exponent vector as much as any other.
        (lambda g: _zero_twin(g, before=True), "obstructions.polynomials[0]: duplicate exponent vector"),
        (lambda g: _zero_twin(g, before=False), "obstructions.polynomials[0]: duplicate exponent vector"),
        (lambda g: g["obstructions"]["polynomials"][0][0].update(coefficient="1/0"),
         "polynomials[0]: bad scalar '1/0': Fraction(1, 0)"),
        (lambda g: g["obstructions"]["polynomials"][0][0].update(coefficient="1.5"),
         "polynomials[0]: bad scalar '1.5': expected a, a/b, c/d*i or a/b+c/d*i"),
        *[
            (lambda g, label=label: g["obstructions"]["coordinates"].__setitem__(0, label),
             "obstructions: coordinates: expected a list of labels")
            for label in (["h2[0]"], {"h": 0}, None, True, 0, 1.5)
        ],
        # mc-check --json keys the obstruction values by label.
        (lambda g: g["obstructions"]["coordinates"].__setitem__(1, g["obstructions"]["coordinates"][0]),
         "obstructions: coordinates: labels must be distinct"),
        (lambda g: g["target_algebra"].update(basis=[]), "target_algebra: basis: needs at least one label"),
        (lambda g: g["base_algebra"].update(basis=[]), "base_algebra: basis: needs at least one label"),
    ],
    ids=[
        "no-base-algebra", "monomial-index-99", "short-exponents", "strategy-foo", "short-record",
        "float-record-exponents", "bool-record-exponent", "split-degree-block", "degree-0",
        "degree-not-exponent-total", "repeated-exponents", "repeated-entry",
        "subdga-not-closed", "terminated-string", "terminated-missing",
        "repeated-variables", "negative-record-exponent", "repeated-record-exponents",
        "zero-record-then-repeat", "repeat-then-zero-record",
        "record-coefficient-1/0", "record-coefficient-1.5",
        "list-coordinate", "dict-coordinate", "null-coordinate", "bool-coordinate",
        "int-coordinate", "float-coordinate", "repeated-coordinate", "empty-target-basis",
        "empty-base-basis",
    ],
)
def test_bad_germ_file_is_a_parse_error(tmp_path, capsys, corrupt, field):
    germ_path = tmp_path / "germ.json"
    code, _, _ = run(
        capsys, "kuranishi", str(FIXTURES / "h3.json"), "--target", "sl2",
        "--json", str(germ_path),
    )
    assert code == 0
    germ = json.loads(germ_path.read_text())
    corrupt(germ)
    germ_path.write_text(json.dumps(germ))
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, "mc-check", str(germ_path), "--point", "t1=1", *json_flag)
        assert code == 2 and out == ""
        assert err.startswith("parse error: ") and field in err


def _h3_germ(tmp_path, capsys):
    germ_path = tmp_path / "germ.json"
    code, _, _ = run(
        capsys, "kuranishi", str(FIXTURES / "h3.json"), "--target", "sl2",
        "--json", str(germ_path),
    )
    assert code == 0
    return germ_path, json.loads(germ_path.read_text())


def test_boolean_coefficient_is_a_parse_error(tmp_path, capsys):
    # scalar() reads true as 1; a germ file's coefficient is a JSON string
    # or integer, as its phi values are.
    germ_path, germ = _h3_germ(tmp_path, capsys)
    record = germ["obstructions"]["polynomials"][0][0]
    record["coefficient"] = True
    germ_path.write_text(json.dumps(germ))
    code, out, err = run(capsys, "mc-check", str(germ_path), "--point", "t1=1")
    assert (code, out) == (2, "")
    assert err == (
        f"parse error: {germ_path}: obstructions.polynomials[0]: bad polynomial "
        f"record {record!r}: booleans are not scalars\n"
    )


def test_repeated_bad_coefficient_fails_at_its_first_record(tmp_path, capsys):
    germ_path, germ = _h3_germ(tmp_path, capsys)
    polynomials = germ["obstructions"]["polynomials"]
    nonzero = [k for k, records in enumerate(polynomials) if records]
    for k in nonzero[1:3]:
        polynomials[k][-1]["coefficient"] = "2/0"
    germ_path.write_text(json.dumps(germ))
    code, out, err = run(capsys, "mc-check", str(germ_path), "--point", "t1=1")
    assert (code, out) == (2, "")
    assert err == (
        f"parse error: {germ_path}: obstructions.polynomials[{nonzero[1]}]: "
        "bad scalar '2/0': Fraction(2, 0)\n"
    )


# Bad exponent lists for the h3 x sl2 germ (6 variables).  The reader must
# name the first bad record of a polynomial or phi block, with the message
# it always had, wherever the bad record sits.
BAD_EXPONENTS = {
    "bool": [0, True, 1, 1, 0, 0],
    "float": [0, 1.5, 1, 1, 0, 0],
    "negative": [0, -1, 1, 1, 0, 0],
    "short": [1, 1],
}
EXPONENTS_MESSAGE = "exponents: expected 6 nonnegative integers, one per variable"


def _mc_check_error(capsys, germ_path, germ) -> str:
    """mc-check's stderr on ``germ``, the same in text and JSON mode; each
    run exits 2 and prints nothing on stdout."""
    germ_path.write_text(json.dumps(germ))
    errors = set()
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, "mc-check", str(germ_path), "--point", "t1=1", *json_flag)
        assert (code, out) == (2, "")
        errors.add(err)
    (err,) = errors
    return err


@pytest.mark.parametrize("bad", BAD_EXPONENTS)
@pytest.mark.parametrize("k, r", [(0, 2), (3, 1)], ids=["after-good-records", "later-polynomial"])
def test_bad_record_exponents_name_the_first_bad_record(tmp_path, capsys, bad, k, r):
    germ_path, germ = _h3_germ(tmp_path, capsys)
    polynomials = germ["obstructions"]["polynomials"]
    record = polynomials[k][r]
    record["exponents"] = BAD_EXPONENTS[bad]
    # Later bad records, in the same polynomial and in the last one.
    polynomials[k].append({"coefficient": "1/0", "exponents": [9]})
    polynomials[-1][0]["exponents"] = [True] * 6
    assert _mc_check_error(capsys, germ_path, germ) == (
        f"parse error: {germ_path}: obstructions.polynomials[{k}]: "
        f"bad polynomial record {record!r}: {EXPONENTS_MESSAGE}\n"
    )


@pytest.mark.parametrize(
    "coefficient, message",
    [
        ("1/0", "bad scalar '1/0': Fraction(1, 0)"),
        (True, "bad polynomial record {record!r}: booleans are not scalars"),
        (1.5, "bad polynomial record {record!r}: cannot build a Scalar from float"),
    ],
    ids=["text-1/0", "bool", "float"],
)
def test_bad_coefficient_before_bad_exponents_is_named(tmp_path, capsys, coefficient, message):
    germ_path, germ = _h3_germ(tmp_path, capsys)
    records = germ["obstructions"]["polynomials"][3]
    record = records[1]
    record["coefficient"] = coefficient
    records[2]["exponents"] = BAD_EXPONENTS["bool"]
    assert _mc_check_error(capsys, germ_path, germ) == (
        f"parse error: {germ_path}: obstructions.polynomials[3]: "
        + message.format(record=record) + "\n"
    )


def test_integer_coefficients_read_as_their_texts(tmp_path, capsys):
    # Integer coefficients are valid records, read as their texts.
    germ_path, germ = _h3_germ(tmp_path, capsys)
    argv = ["mc-check", str(germ_path), "--point", "t1=1/2,t2=-1,t3=2/3,t4=1,t5=3,t6=-1/4", "--json"]
    code, expected, _ = run(capsys, *argv)
    assert code == 0 and not json.loads(expected)["obstructions_vanish"]
    for records in germ["obstructions"]["polynomials"]:
        for record in records:
            record["coefficient"] = int(record["coefficient"])
    germ_path.write_text(json.dumps(germ))
    assert run(capsys, *argv) == (0, expected, "")


@pytest.mark.parametrize("bad", [*BAD_EXPONENTS, "not-an-object"])
@pytest.mark.parametrize("b, t", [(0, 3), (1, 2)], ids=["after-good-terms", "later-block"])
def test_bad_phi_exponents_name_the_first_bad_term(tmp_path, capsys, bad, b, t):
    germ_path, germ = _h3_germ(tmp_path, capsys)
    terms = germ["phi"][b]["terms"]
    if bad == "not-an-object":
        terms[t], message = [terms[t]], "expected an object"
    else:
        terms[t]["exponents"], message = BAD_EXPONENTS[bad], EXPONENTS_MESSAGE
    # Later bad terms, in the same block and in the last one.
    terms.append({"entries": [], "exponents": [9]})
    germ["phi"][-1]["terms"][-2]["exponents"] = [True] * 6
    assert _mc_check_error(capsys, germ_path, germ) == (
        f"parse error: {germ_path}: phi[{b}].terms[{t}]: {message}\n"
    )


@pytest.mark.parametrize(
    "value, message",
    [
        ("1/0", "bad scalar '1/0': Fraction(1, 0)"),
        (True, "booleans are not scalars"),
        (1.5, "scalars must be strings like '1/2' or '1/2+1/3*i' (or plain integers), got float"),
    ],
    ids=["text-1/0", "bool", "float"],
)
def test_bad_phi_value_before_bad_exponents_is_named(tmp_path, capsys, value, message):
    germ_path, germ = _h3_germ(tmp_path, capsys)
    terms = germ["phi"][1]["terms"]
    terms[1]["entries"][0]["value"] = value
    terms[2]["exponents"] = BAD_EXPONENTS["bool"]
    assert _mc_check_error(capsys, germ_path, germ) == (
        f"parse error: {germ_path}: phi[1].terms[1].entries[0]: value: {message}\n"
    )


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda term: term.pop("entries"), "entries: missing or not a list"),
        (lambda term: term.pop("exponents"), "exponents: missing or not a list"),
        (lambda term: term["entries"].insert(1, 7), ".entries[1]: expected an object"),
        (lambda term: term["entries"][1].pop("monomial_index"),
         ".entries[1]: monomial_index: missing or not an integer"),
        (lambda term: term["entries"][1].update(monomial_index=3),
         ".entries[1]: monomial_index: 3 is not a degree-1 monomial (0..2)"),
        (lambda term: term["entries"][1].update(target=None), ".entries[1]: target: missing or not a string"),
        (lambda term: term["entries"][1].update(target="Q"), ".entries[1]: target: unknown label 'Q'"),
        (lambda term: term["entries"].append(dict(term["entries"][0])),
         ".entries[{last}]: repeats an earlier (monomial_index, target)"),
    ],
    ids=[
        "no-entries", "no-exponents", "entry-not-an-object", "no-monomial-index",
        "monomial-index-3", "no-target", "unknown-target", "repeated-entry",
    ],
)
def test_phi_messages_name_the_term_and_entry(tmp_path, capsys, corrupt, message):
    # The location comes first, then the field: the same text whether the
    # term or one of its entries is at fault.
    germ_path, germ = _h3_germ(tmp_path, capsys)
    term = germ["phi"][1]["terms"][1]
    term["entries"].append(dict(term["entries"][0], target="H"))
    corrupt(term)
    at = "" if message.startswith(".") else ": "
    assert _mc_check_error(capsys, germ_path, germ) == (
        f"parse error: {germ_path}: phi[1].terms[1]{at}"
        + message.format(last=len(term.get("entries", [])) - 1) + "\n"
    )


def test_germ_read_parses_each_scalar_text_once_per_read(tmp_path, capsys, monkeypatch):
    from germkit import scalars

    code, _, _ = run(
        capsys, "kuranishi", str(FIXTURES / "h5.json"), "--target", "gl:2",
        "--json", str(tmp_path / "germ.json"),
    )
    assert code == 0
    data = json.loads((tmp_path / "germ.json").read_text())
    values = [e["value"] for block in data["phi"] for t in block["terms"] for e in t["entries"]]
    coefficients = [r["coefficient"] for records in data["obstructions"]["polynomials"] for r in records]
    assert len({*values, *coefficients}) < len(values + coefficients)

    parsed = collections.Counter()
    parse = scalars.parse_scalar

    def counting(text):
        parsed[text] += 1
        return parse(text)

    monkeypatch.setattr(scalars, "parse_scalar", counting)
    reads = []
    for _ in range(2):
        parsed.clear()
        germ_from_dict(json.loads(json.dumps(data)))
        reads.append(dict(parsed))
    assert reads[0] == reads[1]
    assert set(reads[0].values()) == {1}
    assert {*values, *coefficients} <= reads[0].keys()


def test_only_algebra_files_are_hashed(tmp_path, capsys, monkeypatch):
    # A report names the digest of its algebra file; a germ, selection or
    # target file read as plain JSON is not hashed.
    from germkit import formats

    source = FIXTURES / "h3.json"
    germ_path = tmp_path / "germ.json"
    code, _, _ = run(capsys, "kuranishi", str(source), "--target", "sl2", "--json", str(germ_path))
    assert code == 0
    hashed = []
    digest = formats.file_digest
    monkeypatch.setattr(formats, "file_digest", lambda raw: hashed.append(raw) or digest(raw))
    code, _, _ = run(capsys, "mc-check", str(germ_path), "--point", "t1=1", "--json")
    assert (code, hashed) == (0, [])
    assert "__digest__" not in formats.load_json_file(str(source))
    code, out, _ = run(capsys, "check", str(source), "--json")
    assert code == 0 and hashed == [source.read_bytes()]
    assert json.loads(out)["input_digest"] == digest(source.read_bytes())


def test_germ_grading_is_checked_beyond_the_split(tmp_path, capsys):
    # mc-check splits a germ only to degree 1, but the grading check still
    # reads d in degree 2.  Here the selection has no degree-1 monomials and
    # the one-layer grading fails only at d(X1∧Z) = X1∧X2∧Y2.
    germ_path = tmp_path / "germ.json"
    code, _, _ = run(
        capsys, "kuranishi", str(FIXTURES / "h5.json"), "--target", "sl2",
        "--json", str(germ_path),
    )
    assert code == 0
    germ = json.loads(germ_path.read_text())
    germ.update(
        subdga_monomials=[["X1", "Z"], ["X1", "X2", "Y2"]],
        grading=[[["1" if i == j else "0" for j in range(5)] for i in range(5)]],
        phi=[], variables=[], zeta=[],
    )
    germ["obstructions"].update(polynomials=[], coordinates=[])
    germ_path.write_text(json.dumps(germ))
    code, out, err = run(capsys, "mc-check", str(germ_path), "--point", "")
    assert code == 1 and out == ""
    assert err == (
        "precondition failed: differential is not weight-homogeneous: "
        "d(X1∧Z) of weight 2 has a component on X1∧X2∧Y2 of weight 3; the "
        "grading does not send each dual layer into the matching degree-2 "
        "weight space\n"
    )


def test_pipeline_command_and_determinism(capsys):
    path = str(FIXTURES / "solv_heisenberg.json")
    code, out1, _ = run(capsys, "pipeline", path, "--target", "sl2", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "pipeline", path, "--target", "sl2", "--json")
    assert code == 0
    assert out1 == out2  # byte-identical reports
    report = json.loads(out1)
    jsonschema.validate(report, SCHEMA)
    stages = {s["stage"]: s for s in report["stages"]}
    assert stages["germ"]["degree_bound"] == {"bound": 3, "satisfied": True}
    assert stages["character_subdga"]["smooth"] is True
    assert stages["character_subdga"]["embedding_agree"] is True
    assert report["germ"]["obstructions"]["max_degree"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["pipeline", str(FIXTURES / "solv_heisenberg.json"), "--target", "sl2"],
        ["kuranishi", str(FIXTURES / "q_plus_h3.json"),
         "--subdga", str(FIXTURES / "diag_weight_characters.json"), "--target", "sl2"],
    ],
    ids=["pipeline-characters", "kuranishi-subdga"],
)
def test_selected_complex_is_built_once(monkeypatch, capsys, argv):
    # One full complex and one restriction of it to the selection; the germ
    # and the embedding check share the latter.
    calls = collections.Counter()
    for name in ("__init__", "restrict"):
        method = getattr(cli.Dga, name)

        def counting(self, *args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(cli.Dga, name, counting)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert calls == {"__init__": 1, "restrict": 1}


@pytest.mark.parametrize(
    "fixture, series_runs", [("h5.json", 1), ("solv_heisenberg.json", 2)]
)
def test_pipeline_checks_each_structural_fact_once(
    monkeypatch, capsys, fixture, series_runs
):
    # One lower central series per algebra: the input's, reused for a
    # nilpotent input's nilshadow and grading; a computed nilshadow adds its
    # own, which its self-check computes and hands out (the nilradical's
    # series is not counted).  One
    # naturality check, and the degree-2 cocycles read off the split, not
    # off a kernel of the dense d_2.
    from germkit import decomp, liealg

    calls = collections.Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        liealg,
        "restricted_lower_central_series",
        counting("series", liealg.restricted_lower_central_series),
    )
    verify = liealg.verify_natural_grading
    for module in (liealg, cli, decomp):
        if getattr(module, "verify_natural_grading", None) is verify:
            monkeypatch.setattr(
                module, "verify_natural_grading", counting("verify", verify)
            )
    reads = _record_dense_reads(monkeypatch)
    code, _, _ = run(capsys, "pipeline", str(FIXTURES / fixture), "--target", "sl2")
    assert code == 0
    assert calls == {"series": series_runs, "verify": 1}
    assert reads == []


def _record_dense_reads(monkeypatch) -> list:
    """Patch ``Dga.d`` to record each complex whose dense rows are read."""
    reads, dense = [], cli.Dga.d

    def reading(self):
        reads.append(self)
        return dense.fget(self)

    monkeypatch.setattr(cli.Dga, "d", property(reading))
    return reads


@pytest.mark.parametrize("strategy", ["metric", "pivot"])
@pytest.mark.parametrize("command", ["pipeline", "decompose"])
def test_split_builds_no_dense_differential(monkeypatch, capsys, command, strategy):
    # The split reads only the sparse columns of d; nothing reads Dga.d.
    built = []
    init = cli.Dga.__init__

    def recording(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.Dga, "__init__", recording)
    reads = _record_dense_reads(monkeypatch)
    argv = [command, str(FIXTURES / "h5.json"), "--strategy", strategy]
    code, _, _ = run(capsys, *argv, *(["--target", "sl2"] if command == "pipeline" else []))
    assert code == 0 and built
    assert reads == []


def test_one_dimensional_algebra_has_no_degree_two(tmp_path, capsys):
    # No degree 2 means no cocycles there: the weight table is empty and
    # the cocycle-weight bound holds.
    path = tmp_path / "a1.json"
    path.write_text(json.dumps({"name": "a1", "basis": ["x"], "brackets": []}))
    code, out, err = run(capsys, "decompose", str(path), "--json")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["degree_dims"] == [1, 1]
    assert report["degree2_weight_table"] == {}
    assert report["degree2_cocycle_weight_bound"] == {"bound": 2, "satisfied": True}
    code, out, err = run(capsys, "pipeline", str(path), "--target", "sl2", "--json")
    assert code == 0 and err == ""
    stages = {s["stage"]: s for s in json.loads(out)["stages"]}
    assert stages["degree2_cocycle_weights"]["satisfied"] is True
    assert stages["germ"]["degree_bound"] == {"bound": 2, "satisfied": True}


def test_unaligned_grading_is_rejected_with_one_message(tmp_path, capsys):
    # Layers (X, Y + Z), (Z) are a natural grading of h3, but not spanned
    # by basis vectors; the grading step rejects them the same way for
    # every subcommand that reads a grading.
    data = json.loads((FIXTURES / "h3.json").read_text())
    data["grading"] = [["X", ["0", "1", "1"]], ["Z"]]
    path = tmp_path / "h3_skew.json"
    path.write_text(json.dumps(data))
    for argv in (
        ["decompose", str(path)],
        ["kuranishi", str(path), "--target", "sl2"],
        ["pipeline", str(path), "--target", "sl2"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == (
            "precondition failed: grading layers must be spanned by input "
            "basis vectors to drive the weight machinery\n"
        ), argv


def test_pipeline_text_output(capsys):
    code, out, _ = run(
        capsys, "pipeline", str(FIXTURES / "solv_heisenberg.json"), "--target", "sl2"
    )
    assert code == 0
    assert "[nilshadow]" in out and "[X, Y] = 1*Z" in out
    assert "[bound] max degree 3 <= 3: PASS" in out


def test_pipeline_abelian_with_sl2(capsys):
    code, out, _ = run(
        capsys, "pipeline", str(FIXTURES / "abelian3.json"), "--target", "sl2"
    )
    assert code == 0
    assert "max total degree 2" in out
    assert "[bound] max degree 2 <= 2: PASS" in out


def test_smooth_germ_message(tmp_path, capsys):
    # an abelian target kills every bracket: the germ is smooth
    target = tmp_path / "ab2.json"
    target.write_text(render_json(algebra_to_dict(abelian(2), "ab2")))
    code, out, _ = run(
        capsys, "kuranishi", str(FIXTURES / "h3.json"), "--target", str(target)
    )
    assert code == 0
    assert "germ is smooth at origin" in out


def test_gl_target_spec(capsys):
    code, out, _ = run(
        capsys, "kuranishi", str(FIXTURES / "h3.json"), "--target", "gl:2"
    )
    assert code == 0
    assert "variables: 8" in out


def test_gl_labels_stay_distinct_past_nine():
    # Without a separator E_{1,11} and E_{11,1} would both be E111, a
    # duplicate label; up to gl:9 the labels keep the unseparated form.
    _, gl11 = cli.resolve_target("gl:11")
    assert len(set(gl11.labels)) == 121
    assert {"E1_11", "E11_1", "E11_11"} <= set(gl11.labels)
    assert fixtures.gl(9).labels[:2] == ("E11", "E12")
    assert fixtures.gl(10).labels[-1] == "E10_10"


@pytest.mark.parametrize(
    "spec", ["gl:1_0", "gl:+2", "gl:-2", "gl: 2", "gl:2 ", "gl:\u0662", "gl:", "gl:2.0", "gl:0"]
)
def test_gl_target_spec_is_strict(capsys, spec):
    with pytest.raises(ParseError):
        cli.resolve_target(spec)
    code, out, err = run(capsys, "kuranishi", str(FIXTURES / "h3.json"), "--target", spec)
    assert code == 2 and out == ""
    assert "Traceback" not in err


def test_empty_basis_is_a_parse_error(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"basis": []}))
    h3 = str(FIXTURES / "h3.json")
    runs = [
        *([command, str(empty)] for command in ("check", "pipeline", "nilshadow", "decompose")),
        ["kuranishi", str(empty), "--target", "sl2"],
        ["kuranishi", h3, "--target", str(empty)],
        ["pipeline", h3, "--target", str(empty)],
    ]
    for argv in runs:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == f"parse error: {empty}: basis: needs at least one label\n", argv


@pytest.mark.parametrize("command", ["kuranishi", "pipeline"])
def test_input_errors_surface_before_a_bad_target(tmp_path, capsys, command):
    notlie = tmp_path / "notlie.json"
    notlie.write_text(json.dumps({
        "basis": ["e1", "e2", "e3"],
        "brackets": [
            {"left": "e1", "right": "e2", "result": [{"coef": "1", "basis": "e3"}]},
            {"left": "e1", "right": "e3", "result": [{"coef": "1", "basis": "e1"}]},
        ],
    }))
    code, out, err = run(capsys, command, str(notlie), "--target", "gl:0")
    assert code == 1 and out == "" and "Jacobi" in err
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, command, str(missing), "--target", "gl:0")
    assert code == 2 and out == ""
    assert err.startswith(f"parse error: {missing}: ") and "gl:" not in err


def test_fixture_files_match_builders():
    # The target presets are the only algebras built in code; each has the
    # labels and nonzero brackets of its fixture file, and so the same
    # target entry in a germ file.
    for spec, name in (("sl2", "sl2"), ("gl:2", "gl2")):
        entry, preset = cli.resolve_target(spec)
        expected = FIXTURE_ALGEBRAS[name]
        assert preset.labels == expected.labels, spec
        assert preset.nonzero_brackets() == expected.nonzero_brackets(), spec
        assert entry == cli.resolve_target(str(FIXTURES / f"{name}.json"))[0], spec
