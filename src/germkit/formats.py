"""JSON interchange for algebras, selections, deformation germs and reports.

Scalars travel as strings to keep arbitrary-precision exactness; all
emitters sort keys and sets so identical inputs produce byte-identical
output.  Parse errors carry the offending field path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable

from . import linalg
from .cedga import CharacterData, Dga, Monomial, TorsionComponent, verify_subdga
from .decomp import (
    GERM_TOP,
    READBACK_TOP,
    STRATEGIES,
    Decomposition,
    graded_weights,
    split_complex,
)
from .errors import ParseError
from .kuranishi import (
    KuranishiSeries,
    ObstructionSystem,
    PolyCochain,
    TensorDgla,
)
from .liealg import Grading, LieAlgebra, Subspace
from .multipoly import MultiPoly, is_exponent_list
from .scalars import ParsedScalars, Scalar, ZERO, scalar

SCHEMA_VERSION = 1


def render_json(data: dict) -> str:
    """``json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False)``
    and a newline, byte for byte.

    ``indent`` sends the stdlib to its pure-Python encoder, one generator
    step per leaf.  Here only containers are walked in Python.  A list
    whose items all have one leaf type (all ``int`` or all ``str``, say)
    is one ``str.join`` over ``json.encoder.encode_basestring`` or the
    ints' texts, with the newline and indentation in the separator; a leaf
    in a mixed container is written directly by its exact type, so
    ``True`` next to ``1`` still reads ``true``.  Each distinct int is
    formatted once per call (exponent vectors repeat a few small ints).
    The leaf types are exactly ``str``, ``int``, ``bool`` and ``None``.
    Anything else, a float or a subclass, and a dict key that is not a
    ``str``, sends the whole document to the stdlib call.
    """
    leaves = {**_LEAVES, int: _IntTexts().__getitem__}
    leaf = leaves.get(type(data))
    if leaf is not None:
        return leaf(data) + "\n"
    chunks: list[str] = []
    try:
        _render(data, "\n", chunks, leaves)
    except TypeError:
        return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    chunks.append("\n")
    return "".join(chunks)


# How json.dumps writes each leaf type, by exact type; ints go through
# an _IntTexts of the call.
_LEAVES = {
    str: json.encoder.encode_basestring,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


class _IntTexts(dict):
    """Each int's JSON text, made on its first lookup; looked up with
    exact ints only (``True == 1``)."""

    def __missing__(self, value: int) -> str:
        text = self[value] = int.__repr__(value)
        return text


def _render(value: Any, newline: str, chunks: list[str], leaves: dict) -> None:
    """Append the container ``value`` as json.dumps writes it after
    ``newline``, a newline and the indentation of its own level; ``leaves``
    writes each leaf by its exact type."""
    inner = newline + "  "
    separator = "," + inner
    if isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        keys = sorted(value)
        if {*map(type, keys)} != {str}:
            raise TypeError("a key that is not a str")
        heads = [key + ": " for key in map(leaves[str], keys)]
        children = [value[key] for key in keys]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        kinds = {*map(type, value)}
        if len(kinds) == 1:
            leaf = leaves.get(kinds.pop())
            if leaf is not None:
                chunks.append("[" + inner + separator.join(map(leaf, value)) + newline + "]")
                return
        heads, children, brackets = None, value, "[]"
    else:
        raise TypeError(f"no fast path for {type(value).__name__}")
    chunks.append(brackets[0] + inner)
    for k, child in enumerate(children):
        if k:
            chunks.append(separator)
        if heads is not None:
            chunks.append(heads[k])
        leaf = leaves.get(type(child))
        if leaf is None:
            _render(child, inner, chunks, leaves)
        else:
            chunks.append(leaf(child))
    chunks.append(newline + brackets[1])


def file_digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def load_json_file(path: str) -> dict:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    data["__digest__"] = file_digest(raw)
    return data


def _coerce_scalar(value: Any, where: str, scalars: ParsedScalars) -> Scalar:
    """The Scalar of a JSON value at ``where``; a text is looked up in
    ``scalars``, the texts of the one file being read."""
    if isinstance(value, bool):
        raise ParseError(f"{where}: booleans are not scalars")
    if isinstance(value, int):
        return scalar(value)
    if isinstance(value, str):
        try:
            return scalars[value]
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from None
    raise ParseError(
        f"{where}: scalars must be strings like '1/2' or '1/2+1/3*i' "
        f"(or plain integers), got {type(value).__name__}"
    )


# -- algebra files ---------------------------------------------------------------


@dataclass
class ParsedAlgebra:
    name: str
    algebra: LieAlgebra
    grading: Grading | None
    nilradical: Subspace | None
    complement: Subspace | None
    characters: CharacterData | None
    digest: str | None


def _parse_vector(
    entry: Any, labels: tuple[str, ...], where: str, scalars: ParsedScalars
) -> list[Scalar]:
    n = len(labels)
    if isinstance(entry, str):
        if entry not in labels:
            raise ParseError(f"{where}: unknown basis label {entry!r}")
        vec = [scalar(0)] * n
        vec[labels.index(entry)] = scalar(1)
        return vec
    if isinstance(entry, list):
        if len(entry) != n:
            raise ParseError(
                f"{where}: vector has {len(entry)} coordinates, expected {n}"
            )
        return [
            _coerce_scalar(c, f"{where}[{k}]", scalars) for k, c in enumerate(entry)
        ]
    raise ParseError(f"{where}: expected a basis label or a coordinate vector")


def _parse_subspace(
    entries: Any, labels: tuple[str, ...], where: str, scalars: ParsedScalars
) -> Subspace:
    if not isinstance(entries, list):
        raise ParseError(f"{where}: expected a list of labels or vectors")
    vectors = [
        _parse_vector(entry, labels, f"{where}[{k}]", scalars)
        for k, entry in enumerate(entries)
    ]
    rows, pivots = linalg.rref(vectors, len(labels))
    return Subspace(len(labels), tuple(rows), tuple(pivots))


def _parse_grading(
    entries: Any, labels: tuple[str, ...], where: str, scalars: ParsedScalars
) -> Grading:
    if not isinstance(entries, list):
        raise ParseError(f"{where}: expected a list of layers")
    return Grading(
        tuple(
            _parse_subspace(layer, labels, f"{where}[{k}]", scalars)
            for k, layer in enumerate(entries)
        )
    )


def matrix_strings(rows: Iterable[linalg.Row], ncols: int) -> list[list[str]]:
    """Sparse rows printed as dense rows of ``ncols`` entries."""
    return [[str(row.get(j, ZERO)) for j in range(ncols)] for row in rows]


def parse_characters(data: Any, dim: int, where: str) -> CharacterData:
    """Character data; every number must be a JSON integer (not a bool, and
    not a float or string that ``int`` would truncate or coerce)."""
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected an object")
    rank = data.get("rank")
    if type(rank) is not int:
        raise ParseError(f"{where}.rank: missing or not an integer")
    raw_exps = data.get("exponents")
    if not isinstance(raw_exps, list) or len(raw_exps) != dim:
        raise ParseError(
            f"{where}.exponents: need one exponent vector per basis index ({dim})"
        )
    exponents = []
    for k, vec in enumerate(raw_exps):
        if not isinstance(vec, list) or len(vec) != rank:
            raise ParseError(
                f"{where}.exponents[{k}]: expected a list of {rank} integers"
            )
        if not all(type(x) is int for x in vec):
            raise ParseError(f"{where}.exponents[{k}]: not integers")
        exponents.append(tuple(vec))
    raw_torsion = data.get("torsion", [])
    if not isinstance(raw_torsion, list):
        raise ParseError(f"{where}.torsion: expected a list")
    torsion = []
    for k, comp in enumerate(raw_torsion):
        tw = f"{where}.torsion[{k}]"
        if not isinstance(comp, dict) or not {"modulus", "residues"} <= comp.keys():
            raise ParseError(f"{tw}: need modulus and residues")
        modulus, residues = comp["modulus"], comp["residues"]
        if type(modulus) is not int:
            raise ParseError(f"{tw}.modulus: not an integer")
        if not isinstance(residues, list) or not all(type(x) is int for x in residues):
            raise ParseError(f"{tw}.residues: expected a list of integers")
        if len(residues) != dim:
            raise ParseError(f"{tw}.residues: need {dim} entries")
        if modulus < 2:
            raise ParseError(f"{tw}.modulus: must be >= 2")
        torsion.append(TorsionComponent(modulus, tuple(residues)))
    return CharacterData(rank=rank, exponents=tuple(exponents), torsion=tuple(torsion))


def parse_algebra_dict(
    data: dict, source: str = "<input>", scalars: ParsedScalars | None = None
) -> ParsedAlgebra:
    """The algebra file ``data``; ``scalars`` holds the scalar texts of the
    file it is part of (a germ file), a fresh map when None."""
    if scalars is None:
        scalars = ParsedScalars()
    name = data.get("name", "unnamed")
    basis = data.get("basis")
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise ParseError(f"{source}: basis: expected a list of labels")
    labels = tuple(basis)
    if len(set(labels)) != len(labels):
        raise ParseError(f"{source}: basis: duplicate labels")
    dim = data.get("dim", len(labels))
    if dim != len(labels):
        raise ParseError(
            f"{source}: dim = {dim} does not match {len(labels)} basis labels"
        )
    field_name = data.get("field", "Q")
    if field_name not in ("Q", "Q(i)"):
        raise ParseError(f"{source}: field: expected 'Q' or 'Q(i)'")

    raw_brackets = data.get("brackets", [])
    if not isinstance(raw_brackets, list):
        raise ParseError(f"{source}: brackets: expected a list")
    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    seen: set[tuple[int, int]] = set()
    for k, entry in enumerate(raw_brackets):
        where = f"{source}: brackets[{k}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: expected an object")
        for fieldname in ("left", "right", "result"):
            if fieldname not in entry:
                raise ParseError(f"{where}: missing field {fieldname!r}")
        left, right = entry["left"], entry["right"]
        for side, value in (("left", left), ("right", right)):
            if value not in labels:
                raise ParseError(f"{where}.{side}: unknown basis label {value!r}")
        i, j = labels.index(left), labels.index(right)
        if i == j:
            raise ParseError(f"{where}: bracket of {left!r} with itself")
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        if (i, j) in seen:
            raise ParseError(
                f"{where}: duplicate bracket for ({labels[i]!r}, {labels[j]!r})"
            )
        seen.add((i, j))
        comps: dict[int, Scalar] = {}
        if not isinstance(entry["result"], list):
            raise ParseError(f"{where}.result: expected a list")
        for t, term in enumerate(entry["result"]):
            tw = f"{where}.result[{t}]"
            if not isinstance(term, dict) or "coef" not in term or "basis" not in term:
                raise ParseError(f"{tw}: expected {{coef, basis}}")
            if term["basis"] not in labels:
                raise ParseError(f"{tw}.basis: unknown basis label {term['basis']!r}")
            target = labels.index(term["basis"])
            coeff = _coerce_scalar(term["coef"], f"{tw}.coef", scalars)
            if field_name == "Q" and not coeff.is_rational():
                raise ParseError(f"{tw}.coef: imaginary part in a field-Q file")
            if sign == -1:
                coeff = -coeff
            total = comps.get(target, scalar(0)) + coeff
            if total:
                comps[target] = total
            else:
                comps.pop(target, None)
        if comps:
            brackets[(i, j)] = comps

    algebra = LieAlgebra(labels, brackets)  # runs the Jacobi check

    grading = (
        _parse_grading(data["grading"], labels, f"{source}: grading", scalars)
        if "grading" in data
        else None
    )
    nilradical = (
        _parse_subspace(data["nilradical"], labels, f"{source}: nilradical", scalars)
        if "nilradical" in data
        else None
    )
    complement = (
        _parse_subspace(data["complement"], labels, f"{source}: complement", scalars)
        if "complement" in data
        else None
    )
    characters = (
        parse_characters(data["characters"], len(labels), f"{source}: characters")
        if "characters" in data
        else None
    )
    return ParsedAlgebra(
        name=name,
        algebra=algebra,
        grading=grading,
        nilradical=nilradical,
        complement=complement,
        characters=characters,
        digest=data.get("__digest__"),
    )


def load_algebra_file(path: str) -> ParsedAlgebra:
    return parse_algebra_dict(load_json_file(path), source=path)


def algebra_to_dict(
    algebra: LieAlgebra,
    name: str = "unnamed",
    *,
    grading: Grading | None = None,
    nilradical: Subspace | None = None,
    complement: Subspace | None = None,
    characters: CharacterData | None = None,
) -> dict:
    rational = all(
        c.is_rational()
        for _, _, comps in algebra.nonzero_brackets()
        for c in comps.values()
    )
    data: dict[str, Any] = {
        "name": name,
        "dim": algebra.dim,
        "basis": list(algebra.labels),
        "field": "Q" if rational else "Q(i)",
        "brackets": [
            {
                "left": algebra.labels[i],
                "right": algebra.labels[j],
                "result": [
                    {"coef": str(c), "basis": algebra.labels[k]}
                    for k, c in sorted(comps.items())
                ],
            }
            for i, j, comps in algebra.nonzero_brackets()
        ],
    }
    if grading is not None:
        data["grading"] = [matrix_strings(layer.rows, algebra.dim) for layer in grading.layers]
    if nilradical is not None:
        data["nilradical"] = matrix_strings(nilradical.rows, algebra.dim)
    if complement is not None:
        data["complement"] = matrix_strings(complement.rows, algebra.dim)
    if characters is not None:
        data["characters"] = characters_to_dict(characters)
    return data


def characters_to_dict(characters: CharacterData) -> dict:
    out: dict[str, Any] = {
        "rank": characters.rank,
        "exponents": [list(v) for v in characters.exponents],
    }
    if characters.torsion:
        out["torsion"] = [
            {"modulus": comp.modulus, "residues": list(comp.residues)}
            for comp in characters.torsion
        ]
    return out


# -- sub-DGA selection files ---------------------------------------------------------


def parse_subdga_spec(
    data: dict, dga: Dga, source: str = "<subdga>"
) -> list[list[Monomial]] | CharacterData:
    """A selection file holds either explicit monomials or character data.

    Monomials come back as per-degree lists of 0-based index tuples, sorted,
    with the unit added; they are not yet checked to form a sub-DGA
    (``verify_subdga`` does that).  Character data comes back as is.
    """
    if "characters" in data:
        return parse_characters(
            data["characters"], dga.algebra.dim, f"{source}: characters"
        )
    if "monomials" not in data:
        raise ParseError(f"{source}: need either 'monomials' or 'characters'")
    labels = dga.algebra.labels
    n = dga.algebra.dim
    levels: list[set[Monomial]] = [set() for _ in range(n + 1)]
    raw = data["monomials"]
    if not isinstance(raw, list):
        raise ParseError(f"{source}: monomials: expected a list of index lists")
    for k, entry in enumerate(raw):
        where = f"{source}: monomials[{k}]"
        if not isinstance(entry, list):
            raise ParseError(f"{where}: expected a list")
        indices = []
        for item in entry:
            if isinstance(item, str):
                if item not in labels:
                    raise ParseError(f"{where}: unknown basis label {item!r}")
                indices.append(labels.index(item))
            elif isinstance(item, int) and not isinstance(item, bool):
                if not (1 <= item <= n):
                    raise ParseError(
                        f"{where}: index {item} out of range 1..{n} (1-based)"
                    )
                indices.append(item - 1)
            else:
                raise ParseError(f"{where}: entries must be labels or 1-based indices")
        mono = tuple(sorted(indices))
        if len(set(mono)) != len(mono):
            raise ParseError(f"{where}: repeated index")
        levels[len(mono)].add(mono)
    levels[0].add(())
    return [sorted(level) for level in levels]


def subdga_to_monomial_lists(sub: Dga) -> list[list[int]]:
    """1-based index lists, by degree then lexicographic order."""
    return [[i + 1 for i in mono] for level in sub.monomials for mono in level]


# -- germ files -----------------------------------------------------------------------


def _sparse_entries(tdgla: TensorDgla, vec: dict[int, Scalar]) -> list[dict]:
    ta = tdgla.target.dim
    entries = []
    for idx in sorted(vec):
        mono_idx, a = divmod(idx, ta)
        entries.append(
            {
                "monomial_index": mono_idx,
                "target": tdgla.target.labels[a],
                "value": str(vec[idx]),
            }
        )
    return entries


def germ_to_dict(
    series: KuranishiSeries,
    system: ObstructionSystem,
    *,
    base: dict,
    target: dict,
    strategy: str,
    grading_labels: list[list[list[str]]] | None,
    subdga_monomials: list[list[int]] | None,
    degree_bound: dict | None,
) -> dict:
    tdgla = series.tdgla
    phi_out = []
    for r in sorted(series.slices):
        terms = []
        for exps in sorted(series.slices[r]):
            terms.append(
                {
                    "exponents": list(exps),
                    "entries": _sparse_entries(tdgla, series.slices[r][exps]),
                }
            )
        phi_out.append({"degree": r, "terms": terms})
    dec = series.decomposition
    # The split holds sparse rows; the file prints each form as a dense row.
    one_forms, two_forms = (
        matrix_strings(dec.harmonic_basis(p), dec.dga.dim_at(p))
        if p < len(dec.splits)
        else []
        for p in (1, 2)
    )
    serialised = [p.serialise() for p in system.polynomials]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "germ",
        "base_algebra": base,
        "target_algebra": target,
        "strategy": strategy,
        "grading": grading_labels,
        "subdga_monomials": subdga_monomials,
        "cap": series.cap,
        "terminated": series.terminated,
        "last_nonzero_degree": series.last_nonzero,
        "variables": list(series.variables),
        "zeta": [
            {
                "variable": series.variables[i],
                "harmonic_one_form": h,
                "target": tdgla.target.labels[a],
            }
            for i, (h, a) in enumerate(series.zeta_info)
        ],
        "harmonic_one_forms": one_forms,
        "harmonic_two_forms": two_forms,
        "phi": phi_out,
        "obstructions": {
            "coordinates": list(system.coordinates),
            "polynomials": [records for records, _ in serialised],
            "pretty": [text for _, text in serialised],
            "homogeneous_degrees": system.homogeneous_degrees(),
            "max_degree": system.max_degree,
            "nu": system.nu,
            "terminated": system.terminated,
            "valid_modulo": system.valid_modulo,
            "smooth": system.is_smooth,
            "degree_bound": degree_bound,
        },
    }


@dataclass
class GermData:
    """A germ file rebuilt far enough to evaluate points exactly."""

    decomposition: Decomposition
    tdgla: TensorDgla
    variables: tuple[str, ...]
    phi: PolyCochain
    polynomials: tuple[MultiPoly, ...]
    coordinates: tuple[str, ...]
    terminated: bool


_KINDS = {
    dict: "an object", list: "a list", int: "an integer", str: "a string",
    bool: "a boolean",
}


def _field(data: Any, key: str, kind: type, where: str) -> Any:
    """``data[key]``, which must be present and of ``kind``."""
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected an object")
    value = data.get(key)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"{where}: {key}: missing or not {_KINDS[kind]}")
    return value


def germ_from_dict(data: dict, source: str = "<germ>") -> GermData:
    if data.get("kind") != "germ":
        raise ParseError(f"{source}: not a germ file (kind != 'germ')")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"{source}: unsupported schema_version")
    strategy = data.get("strategy", "metric")
    if strategy not in STRATEGIES:
        raise ParseError(f"{source}: strategy: expected one of {STRATEGIES}")
    # Every scalar text of this file, parsed once; dropped with the call.
    scalars = ParsedScalars()
    base = parse_algebra_dict(
        _field(data, "base_algebra", dict, source), f"{source}: base_algebra", scalars
    )
    target = parse_algebra_dict(
        _field(data, "target_algebra", dict, source), f"{source}: target_algebra", scalars
    )
    complex_ = Dga(base.algebra)
    if data.get("subdga_monomials") is not None:
        where = f"{source}: subdga_monomials"
        selected = parse_subdga_spec(
            {"monomials": data["subdga_monomials"]}, complex_, where
        )
        violation = verify_subdga(complex_, selected)
        if violation is not None:
            raise ParseError(f"{where}: {violation}")
        complex_ = Dga(base.algebra, selected)
    grading = None
    if data.get("grading") is not None:
        grading = _parse_grading(
            data["grading"], base.algebra.labels, f"{source}: grading", scalars
        )
    tdgla = TensorDgla(complex_, target.algebra)
    variables = tuple(_field(data, "variables", list, source))
    if not all(isinstance(name, str) for name in variables):
        raise ParseError(f"{source}: variables: expected a list of names")
    if len(set(variables)) != len(variables):
        raise ParseError(f"{source}: variables: names must be distinct")
    labels = target.algebra.labels
    dim1 = complex_.dim_at(1)
    blocks: dict[int, dict] = {}
    for b, block in enumerate(_field(data, "phi", list, source)):
        where = f"{source}: phi[{b}]"
        r = _field(block, "degree", int, where)
        if r < 1:
            raise ParseError(f"{where}: degree: {r} is below 1")
        if r in blocks:
            raise ParseError(f"{where}: degree: {r} repeats an earlier block")
        terms = blocks[r] = {}
        for t, term in enumerate(_field(block, "terms", list, where)):
            tw = f"{where}.terms[{t}]"
            exps = _field(term, "exponents", list, tw)
            if not is_exponent_list(exps, len(variables)):
                raise ParseError(
                    f"{tw}: exponents: expected {len(variables)} "
                    "nonnegative integers, one per variable"
                )
            exps = tuple(exps)
            if sum(exps) != r:
                raise ParseError(f"{tw}: exponents: total {sum(exps)} is not the degree {r}")
            if exps in terms:
                raise ParseError(f"{tw}: exponents: repeat an earlier term")
            vec = terms[exps] = {}
            for k, entry in enumerate(_field(term, "entries", list, tw)):
                ew = f"{tw}.entries[{k}]"
                mono_idx = _field(entry, "monomial_index", int, ew)
                if not 0 <= mono_idx < dim1:
                    raise ParseError(
                        f"{ew}: monomial_index: {mono_idx} is not a degree-1 "
                        f"monomial (0..{dim1 - 1})"
                    )
                label = _field(entry, "target", str, ew)
                if label not in labels:
                    raise ParseError(f"{ew}: target: unknown label {label!r}")
                spot = tdgla.flat(mono_idx, labels.index(label))
                if spot in vec:
                    raise ParseError(f"{ew}: repeats an earlier (monomial_index, target)")
                vec[spot] = _coerce_scalar(entry.get("value"), f"{ew}: value", scalars)
    # Zero values are not stored, nor the terms and blocks they leave empty.
    slices: dict[int, dict] = {}
    for r, terms in blocks.items():
        nonzero = {e: {i: x for i, x in vec.items() if x} for e, vec in terms.items()}
        if any(nonzero.values()):
            slices[r] = {e: vec for e, vec in nonzero.items() if vec}
    phi = PolyCochain(variables, slices)
    obstructions = _field(data, "obstructions", dict, source)
    where = f"{source}: obstructions"
    polys = []
    for k, records in enumerate(_field(obstructions, "polynomials", list, where)):
        try:
            polys.append(MultiPoly.from_records(variables, records, scalars))
        except (ParseError, TypeError, ValueError) as exc:
            raise ParseError(f"{where}.polynomials[{k}]: {exc}") from None
    coordinates = tuple(_field(obstructions, "coordinates", list, where))
    if len(coordinates) != len(polys):
        raise ParseError(f"{where}: coordinates: need one label per polynomial")
    terminated = _field(data, "terminated", bool, source)
    if grading is not None:
        # The split below reads d only on degrees <= READBACK_TOP; the
        # grading is checked on every degree the germ was built from.
        graded_weights(complex_, grading, GERM_TOP)
    return GermData(
        decomposition=split_complex(
            complex_, strategy=strategy, grading=grading, top=READBACK_TOP
        ),
        tdgla=tdgla,
        variables=variables,
        phi=phi,
        polynomials=tuple(polys),
        coordinates=coordinates,
        terminated=terminated,
    )


def parse_point(text: str, variables: tuple[str, ...]) -> list[Scalar]:
    """Parse 't1=1,t2=1/2' into a full coordinate vector (default 0)."""
    values = {name: scalar(0) for name in variables}
    scalars = ParsedScalars()
    text = text.strip()
    if text:
        for chunk in text.split(","):
            if "=" not in chunk:
                raise ParseError(f"point: expected name=value, got {chunk!r}")
            name, _, raw = chunk.partition("=")
            name = name.strip()
            if name not in values:
                raise ParseError(f"point: unknown variable {name!r}")
            values[name] = _coerce_scalar(raw.strip(), f"point.{name}", scalars)
    return [values[name] for name in variables]
