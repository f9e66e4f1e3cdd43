"""JSON interchange for algebras, selections, deformation germs and reports.

Scalars travel as strings to keep arbitrary-precision exactness; all
emitters sort keys and sets so identical inputs produce byte-identical
output.  Parse errors carry the offending field path.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from itertools import compress, count
from typing import Any, Callable, Iterable

from . import linalg
from .cedga import CharacterData, Dga, Monomial, verify_subdga
from .decomp import (
    GERM_TOP,
    READBACK_TOP,
    STRATEGIES,
    Decomposition,
    check_weight_homogeneous,
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
from .multipoly import ExponentVector, MultiPoly, is_exponent_list, printed
from .scalars import ParsedScalars, Scalar, ZERO, scalar

SCHEMA_VERSION = 1


def render_json(data: dict) -> str:
    """``json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False)``
    and a newline, byte for byte, with each ``Fragment`` in ``data`` read
    as the value whose text it holds.

    ``indent`` sends the stdlib to its pure-Python encoder, one generator
    step per leaf.  Here only containers are walked in Python.  A list
    whose items all have one leaf type (all ``int`` or all ``str``, say)
    is one ``str.join`` over ``json.encoder.encode_basestring`` or
    ``int.__repr__``, with the newline and indentation in the separator; a
    leaf in a mixed container is written directly by its exact type, so
    ``True`` next to ``1`` still reads ``true``.  A ``Fragment`` writes its
    own text for the indentation of its position; the germ's phi and
    obstruction records come as fragments, the bulk of a germ file.

    The leaf types are exactly ``str``, ``int``, ``bool`` and ``None``, and
    keys are ``str``: the reports hold nothing else.  Anything else, a float
    or a subclass, raises ``TypeError``.
    """
    leaf = _LEAVES.get(type(data))
    if leaf is not None:
        return leaf(data) + "\n"
    chunks: list[str] = []
    _render(data, "\n", chunks)
    chunks.append("\n")
    return "".join(chunks)


class Fragment:
    """A value that ``render_json`` writes as text: ``write(newline)`` is
    its JSON text as json.dumps writes it after ``newline``, a newline and
    the indentation of the value's level.  Written at its position, the
    text is never re-indented."""

    __slots__ = ("write",)

    def __init__(self, write: Callable[[str], str]):
        self.write = write


_encode = json.encoder.encode_basestring

# How json.dumps writes each leaf type, by exact type.
_LEAVES = {
    str: _encode,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _render(value: Any, newline: str, chunks: list[str]) -> None:
    """Append the container ``value`` as json.dumps writes it after
    ``newline``, a newline and the indentation of its own level."""
    inner = newline + "  "
    separator = "," + inner
    if isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        keys = sorted(value)
        if {*map(type, keys)} != {str}:
            raise TypeError("a key that is not a str")
        heads = [key + ": " for key in map(_encode, keys)]
        children = [value[key] for key in keys]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        kinds = {*map(type, value)}
        if len(kinds) == 1:
            leaf = _LEAVES.get(kinds.pop())
            if leaf is not None:
                chunks.append("[" + inner + separator.join(map(leaf, value)) + newline + "]")
                return
        heads, children, brackets = None, value, "[]"
    else:
        raise TypeError(f"cannot write a {type(value).__name__}")
    chunks.append(brackets[0] + inner)
    for k, child in enumerate(children):
        if k:
            chunks.append(separator)
        if heads is not None:
            chunks.append(heads[k])
        leaf = _LEAVES.get(type(child))
        if leaf is not None:
            chunks.append(leaf(child))
        elif type(child) is Fragment:
            chunks.append(child.write(inner))
        else:
            _render(child, inner, chunks)
    chunks.append(newline + brackets[1])


def file_digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def load_json_file(path: str, *, digest: bool = False) -> dict:
    """The JSON object in the file at ``path``; with ``digest``, the sha256
    of its bytes under ``__digest__``, which an algebra file's report
    names."""
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
    if digest:
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


class ParsedAlgebra:
    __slots__ = ("name", "algebra", "grading", "nilradical", "complement", "characters", "digest")

    def __init__(
        self, name: str, algebra: LieAlgebra, grading: tuple[Subspace, ...] | None,
        nilradical: Subspace | None, complement: Subspace | None,
        characters: CharacterData | None, digest: str | None,
    ):
        self.name, self.algebra, self.grading = name, algebra, grading
        self.nilradical, self.complement = nilradical, complement
        self.characters, self.digest = characters, digest


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
) -> tuple[Subspace, ...]:
    if not isinstance(entries, list):
        raise ParseError(f"{where}: expected a list of layers")
    return tuple(
        _parse_subspace(layer, labels, f"{where}[{k}]", scalars)
        for k, layer in enumerate(entries)
    )


def matrix_strings(rows: Iterable[linalg.Row], ncols: int) -> list[list[str]]:
    """Sparse rows printed as dense rows of ``ncols`` entries."""
    return [[str(row.get(j, ZERO)) for j in range(ncols)] for row in rows]


def parse_characters(data: Any, dim: int, where: str) -> CharacterData:
    """Character data; every number must be a JSON integer (not a bool, and
    not a float or string that ``int`` would truncate or coerce).  The
    file's exponent vectors (one per basis index) and torsion residues come
    back as weight tables, the free coordinates first."""
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
    for k, vec in enumerate(raw_exps):
        if not isinstance(vec, list) or len(vec) != rank:
            raise ParseError(
                f"{where}.exponents[{k}]: expected a list of {rank} integers"
            )
        if not all(type(x) is int for x in vec):
            raise ParseError(f"{where}.exponents[{k}]: not integers")
    tables, moduli = list(zip(*raw_exps)), [0] * rank
    raw_torsion = data.get("torsion", [])
    if not isinstance(raw_torsion, list):
        raise ParseError(f"{where}.torsion: expected a list")
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
        tables.append(tuple(residues))
        moduli.append(modulus)
    return CharacterData(tables=tuple(tables), moduli=tuple(moduli))


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
    if not basis:
        raise ParseError(f"{source}: basis: needs at least one label")
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

    def optional(key: str, parse: Callable, shape: Any, *rest: Any) -> Any:
        """The file's entry ``key`` parsed, or None without one."""
        return parse(data[key], shape, f"{source}: {key}", *rest) if key in data else None

    return ParsedAlgebra(
        name=name,
        algebra=algebra,
        grading=optional("grading", _parse_grading, labels, scalars),
        nilradical=optional("nilradical", _parse_subspace, labels, scalars),
        complement=optional("complement", _parse_subspace, labels, scalars),
        characters=optional("characters", parse_characters, len(labels)),
        digest=data.get("__digest__"),
    )


def load_algebra_file(path: str) -> ParsedAlgebra:
    return parse_algebra_dict(load_json_file(path, digest=True), source=path)


def algebra_to_dict(algebra: LieAlgebra, name: str) -> dict:
    rational = all(
        c.is_rational()
        for _, _, comps in algebra.nonzero_brackets()
        for c in comps.values()
    )
    return {
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


class _Exponents:
    """Exponent vectors of one length as json.dumps writes them after
    ``newline``, from ``template``, a slot per entry.  On a germ of at most
    ``NARROW`` variables each slot is ``%d``, and one ``%`` writes a vector
    in C, at a cost per variable; on a wider one each is ``0``, and ``text``
    cuts the nonzero entries in, at a cost per nonzero entry in Python.  The
    two meet at about 16 variables (BENCH_32.json).  The rule reads only the
    length, once per germ: a test per term would cost what it saves."""

    __slots__ = ("narrow", "template", "spots")
    NARROW = 15

    def __init__(self, length: int, newline: str):
        inner = newline + "  "
        self.narrow = length <= self.NARROW
        slots = ["%d" if self.narrow else "0"] * length
        self.template = "[" + inner + ("," + inner).join(slots) + newline + "]" if length else "[]"
        step = len(inner) + 2
        self.spots = range(len(inner) + 1, len(inner) + 1 + length * step, step)

    def text(self, exps: ExponentVector, positions: Iterable[int]) -> str:
        """A wide germ's ``exps``, whose nonzero entries are at ``positions``."""
        zeros, spots = self.template, self.spots
        parts = []
        start = 0
        for k in positions:
            spot = spots[k]
            parts += (zeros[start:spot], str(exps[k]))
            start = spot + 1
        parts.append(zeros[start:])
        return "".join(parts)


def _phi_text(series: KuranishiSeries, newline: str) -> str:
    """The germ's ``phi`` as json.dumps writes it after ``newline``: one
    block per degree, one term per exponent vector and one entry per
    nonzero (1-monomial, target) value, each in sorted order, written
    straight from ``series.slices``.  The pieces joined are whole terms:
    on a deep germ, a piece per entry or per exponent would hold more
    memory in string headers than in text.  A term's exponents are one
    ``%`` over ``_Exponents.template`` on a narrow germ, spliced on a wide
    one: the variable count says which costs less (``_Exponents``)."""
    n1, n2, n3, n4, n5, n6 = (newline + "  " * k for k in range(1, 7))
    ta = series.tdgla.target.dim
    labels = [_encode(label) for label in series.tdgla.target.labels]
    exponents = _Exponents(len(series.variables), n4)
    block_head = n1 + "{" + n2 + '"degree": %d,' + n2 + '"terms": ['
    term = n3 + "{" + n4 + '"entries": %s,' + n4 + '"exponents": %s' + n3 + "}"
    entry = (
        n5 + "{" + n6 + '"monomial_index": %d,' + n6 + '"target": %s,' + n6
        + '"value": %s' + n5 + "}"
    )
    chunks = ["["]
    for b, r in enumerate(sorted(series.slices)):
        terms = series.slices[r]
        chunks.append(("," if b else "") + block_head % r)
        for t, exps in enumerate(sorted(terms)):
            vec = terms[exps]
            entries = ",".join(
                [entry % (i // ta, labels[i % ta], _encode(str(vec[i]))) for i in sorted(vec)]
            )
            if exponents.narrow:
                exps_text = exponents.template % exps
            else:
                exps_text = exponents.text(exps, compress(count(), exps))
            text = term % ("[" + entries + n4 + "]" if vec else "[]", exps_text)
            chunks.append("," + text if t else text)
        chunks.append(n2 + "]" + n1 + "}")
    chunks.append(newline + "]" if series.slices else "]")
    return "".join(chunks)


def _obstructions_text(
    polynomials: tuple[MultiPoly, ...], length: int, newline: str | None
) -> tuple[str, list[str]]:
    """(The polynomials' records as json.dumps writes their list after
    ``newline``, their printed forms), from one walk over each polynomial's
    terms (``multipoly.printed``); ``length`` is the number of variables.
    With ``newline`` None, the printed forms alone.  On a germ of at most
    ``_Exponents.NARROW`` variables a record is one ``%`` over a template
    with the coefficient's slot and a ``%d`` per variable, all in C; on a
    wider one the exponents are spliced in, at a cost per nonzero entry
    rather than per variable (``_Exponents``)."""
    if newline is None:
        return "", [printed(poly)[0] for poly in polynomials]
    n1, n2, n3 = (newline + "  " * k for k in range(1, 4))
    exponents = _Exponents(length, n3)
    slot = exponents.template if exponents.narrow else "%s"
    record = n2 + "{" + n3 + '"coefficient": %s,' + n3 + '"exponents": ' + slot + n2 + "}"
    chunks, pretty = ["["], []
    for k, poly in enumerate(polynomials):
        shown, terms = printed(poly)
        pretty.append(shown)
        if exponents.narrow:
            records = ",".join([record % (_encode(c), *e) for _, e, _, c in terms])
        else:
            text = exponents.text
            records = ",".join([record % (_encode(c), text(e, nz)) for _, e, nz, c in terms])
        chunks.append(("," if k else "") + n1 + ("[" + records + n1 + "]" if terms else "[]"))
    chunks.append(newline + "]" if polynomials else "]")
    return "".join(chunks), pretty


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
    depth: int | None = 0,
) -> dict:
    """The germ file as a dict for ``render_json``, ``depth`` levels below
    a report's top level (1 under ``pipeline``'s "germ"), or None if it is
    not to be rendered.  ``phi`` and the obstructions' ``polynomials``, the
    bulk of the file, are ``Fragment``s with no dict per entry or term:
    ``phi`` is written when rendered, the records here, in one walk with
    ``pretty`` and for the germ's place (elsewhere they are walked again)."""
    tdgla = series.tdgla
    dec = series.decomposition
    # The split holds sparse rows; the file prints each form as a dense row.
    one_forms, two_forms = (
        matrix_strings(dec.harmonic_basis(p), dec.dga.dim_at(p))
        if p < len(dec.splits)
        else []
        for p in (1, 2)
    )
    walk = partial(_obstructions_text, system.polynomials, len(series.variables))
    at = None if depth is None else "\n" + "  " * (depth + 2)
    records, pretty = walk(at)
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
        "phi": Fragment(partial(_phi_text, series)),
        "obstructions": {
            "coordinates": list(system.coordinates),
            "polynomials": Fragment(lambda n: records if n == at else walk(n)[0]),
            "pretty": pretty,
            "homogeneous_degrees": series.obstruction_degrees,
            "max_degree": system.max_degree,
            "nu": dec.grading.depth if dec.grading is not None else None,
            "terminated": series.terminated,
            "valid_modulo": None if series.terminated else series.cap + 1,
            "smooth": system.is_smooth,
            "degree_bound": degree_bound,
        },
    }


class GermData:
    """A germ file rebuilt far enough to evaluate points exactly."""

    __slots__ = (
        "decomposition", "tdgla", "variables", "phi", "polynomials", "coordinates", "terminated"
    )

    def __init__(
        self, decomposition: Decomposition, tdgla: TensorDgla, variables: tuple[str, ...],
        phi: PolyCochain, polynomials: tuple[MultiPoly, ...], coordinates: tuple[str, ...],
        terminated: bool,
    ):
        self.decomposition, self.tdgla, self.variables = decomposition, tdgla, variables
        self.phi, self.polynomials = phi, polynomials
        self.coordinates, self.terminated = coordinates, terminated


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
        complex_ = complex_.restrict(selected)
    grading = layers = None
    if data.get("grading") is not None:
        layers = _parse_grading(
            data["grading"], base.algebra.labels, f"{source}: grading", scalars
        )
    tdgla = TensorDgla(complex_, target.algebra)
    variables = tuple(_field(data, "variables", list, source))
    if not all(isinstance(name, str) for name in variables):
        raise ParseError(f"{source}: variables: expected a list of names")
    if len(set(variables)) != len(variables):
        raise ParseError(f"{source}: variables: names must be distinct")
    label_index = {label: a for a, label in enumerate(target.algebra.labels)}
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
            k = None  # the entry read; a message gets its location when raised
            try:
                exps = _field(term, "exponents", list, "")
                if not is_exponent_list(exps, len(variables)):
                    raise ParseError(
                        f": exponents: expected {len(variables)} "
                        "nonnegative integers, one per variable"
                    )
                exps = tuple(exps)
                if sum(exps) != r:
                    raise ParseError(f": exponents: total {sum(exps)} is not the degree {r}")
                if exps in terms:
                    raise ParseError(": exponents: repeat an earlier term")
                vec = terms[exps] = {}
                for k, entry in enumerate(_field(term, "entries", list, "")):
                    mono_idx = _field(entry, "monomial_index", int, "")
                    if not 0 <= mono_idx < dim1:
                        raise ParseError(
                            f": monomial_index: {mono_idx} is not a degree-1 "
                            f"monomial (0..{dim1 - 1})"
                        )
                    label = _field(entry, "target", str, "")
                    if label not in label_index:
                        raise ParseError(f": target: unknown label {label!r}")
                    spot = tdgla.flat(mono_idx, label_index[label])
                    if spot in vec:
                        raise ParseError(": repeats an earlier (monomial_index, target)")
                    vec[spot] = _coerce_scalar(entry.get("value"), ": value", scalars)
            except ParseError as exc:
                at = f"{where}.terms[{t}]" + ("" if k is None else f".entries[{k}]")
                raise ParseError(f"{at}{exc}") from None
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
    if not all(isinstance(label, str) for label in coordinates):
        raise ParseError(f"{where}: coordinates: expected a list of labels")
    if len(set(coordinates)) != len(coordinates):
        raise ParseError(f"{where}: coordinates: labels must be distinct")
    if len(coordinates) != len(polys):
        raise ParseError(f"{where}: coordinates: need one label per polynomial")
    terminated = _field(data, "terminated", bool, source)
    if layers is not None:
        # The one check of the file's grading, on every degree the germ was
        # built from; the split below trusts it and reads d only on
        # degrees <= READBACK_TOP.
        grading = Grading.from_layers(layers)
        check_weight_homogeneous(complex_, grading.weights, GERM_TOP)
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
    """Parse 't1=1,t2=1/2' into a full coordinate vector (default 0); a
    variable may be given once."""
    values: dict[str, Scalar] = {}
    scalars = ParsedScalars()
    text = text.strip()
    if text:
        for chunk in text.split(","):
            if "=" not in chunk:
                raise ParseError(f"point: expected name=value, got {chunk!r}")
            name, _, raw = chunk.partition("=")
            name = name.strip()
            if name not in variables:
                raise ParseError(f"point: unknown variable {name!r}")
            if name in values:
                raise ParseError(f"point: variable {name!r} given twice")
            values[name] = _coerce_scalar(raw.strip(), f"point.{name}", scalars)
    return [values.get(name, ZERO) for name in variables]
