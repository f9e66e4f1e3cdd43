"""Command-line surface.

Subcommands: check, nilshadow, decompose, subdga, kuranishi, mc-check,
pipeline.  Exit codes: 0 success (also when the reader of stdout closes it
early), 1 mathematical precondition failure, 2 parse error or an unwritable
output path, 3 internal invariant violation or any other engine error
(one line on stderr, no traceback).

Each handler builds one report dict from the stages of a ``Run`` (parse,
target, lower central series, classify, nilshadow, grading, complex,
duality type, split, cocycle weights, tensor DGLA, germ, selection, its
tensor DGLA, sub-DGA germ, embedding), read in the order their errors
should surface.  A stage runs once, on first read, and calls its engine
function from one place.  Text output prints the report's ``text`` lines;
``--json`` renders the dict.

The embedding stage is exact: it decides that the selection's and the
ambient's Maurer-Cartan residuals agree at every point as one polynomial
identity in the generic degree-one element sum_k t_k e_k of the selection
(see ``linear_embedding_check``).  That is equivalent to agreement at the
N(N+1)/2 points e_k and e_k + e_l, which reports still count as
``samples`` (``embedding_samples`` in ``pipeline``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from . import fixtures
from .cedga import (
    CharacterData,
    Dga,
    pd_type_check,
    subdga_from_characters,
    verify_subdga,
)
from .decomp import (
    GERM_TOP,
    STRATEGIES,
    Decomposition,
    degree2_weight_table,
    kernel_containment_check,
    split_complex,
)
from .errors import InternalCheckError, ParseError, PreconditionError
from .formats import (
    SCHEMA_VERSION,
    ParsedAlgebra,
    algebra_to_dict,
    germ_from_dict,
    germ_to_dict,
    load_algebra_file,
    load_json_file,
    matrix_strings,
    parse_point,
    parse_subdga_spec,
    render_json,
    subdga_to_monomial_lists,
)
from .kuranishi import (
    TensorDgla,
    gauge_identity_check,
    kuranishi_series,
    linear_embedding_check,
    mc_residual,
    obstruction_system,
    verify_degree_bound,
)
from .liealg import (
    Grading,
    LieAlgebra,
    LowerCentralSeries,
    basis_aligned_weights,
    infer_grading_basis_aligned,
    is_solvable,
    lower_central_series,
    verify_natural_grading,
)
from .multipoly import PointPowers
from .nilshadow import SolvableInput, nilshadow

def entrypoint() -> None:
    sys.exit(main())


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    # Looked up per call, so a handler replaced on the module is the one run.
    handler = {
        "check": cmd_check,
        "nilshadow": cmd_nilshadow,
        "decompose": cmd_decompose,
        "subdga": cmd_subdga,
        "kuranishi": cmd_kuranishi,
        "mc-check": cmd_mc_check,
        "pipeline": cmd_pipeline,
    }[args.command]
    run = Run(args)
    try:
        report = handler(run)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # Anything else is an engine bug, reported in one line that names
        # the subcommand and the stage it escaped from, not as a traceback.
        stage = "" if run.failed_stage is None else f", stage {run.failed_stage}"
        if isinstance(exc, InternalCheckError):
            where = f" in {args.command}{stage}" if stage else ""
            print(f"internal invariant violated{where}: {exc}", file=sys.stderr)
        else:
            print(f"internal error in {args.command}{stage}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        return 3
    try:
        emit(report, args)
    except BrokenPipeError:
        # The reader stopped early (``| head``); it has what it wanted.
        # Point stdout at devnull so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        where = "stdout" if args.json in (None, "-") else args.json
        print(f"cannot write {where}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0


# JSON is written in slices of this many characters, to a file or stdout.
# The text layer encodes each string it is given whole, into a buffer of 3
# or 4 bytes per character once the string holds a character past U+00FF:
# the few "⊗" of the h7 x gl3 germ made one write of its 1 MB take a 3 MB
# buffer.
_WRITE_SLICE = 1 << 16


def emit(report: dict, args) -> None:
    if args.json is not None:
        payload = render_json(report)
        to_file = args.json != "-"
        with (open(args.json, "w", encoding="utf-8") if to_file
              else contextlib.nullcontext(sys.stdout)) as handle:
            for start in range(0, len(payload), _WRITE_SLICE):
                handle.write(payload[start : start + _WRITE_SLICE])
        if to_file:
            print(f"wrote {args.json}")
    else:
        for line in report["text"]:
            print(line)
    sys.stdout.flush()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="germkit",
        description=(
            "Exact computations with Lie algebra cochain complexes: "
            "nilshadows, splittings, and deformation germs."
        ),
    )
    # The --characters or --subdga file; None for the other subcommands.
    parser.set_defaults(selection=None)
    sub = parser.add_subparsers(dest="command")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--json",
            nargs="?",
            const="-",
            default=None,
            metavar="PATH",
            help="emit machine-readable JSON (to PATH, or stdout if omitted)",
        )

    p = sub.add_parser("check", help="validate an algebra file and classify it")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("nilshadow", help="compute the nilshadow of a solvable algebra")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("decompose", help="split the cochain complex degree by degree")
    p.add_argument("file")
    p.add_argument("--strategy", choices=STRATEGIES, default="metric")
    common(p)

    p = sub.add_parser("subdga", help="select an invariant monomial sub-DGA")
    p.add_argument("file")
    p.add_argument("--characters", dest="selection", metavar="PATH", default=None)
    common(p)

    p = sub.add_parser("kuranishi", help="solve the deformation series and emit the germ")
    p.add_argument("file")
    p.add_argument("--target", required=True, help="algebra file, sl2, or gl:N")
    p.add_argument("--subdga", dest="selection", metavar="PATH", default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--strategy", choices=STRATEGIES, default="metric")
    common(p)

    p = sub.add_parser("mc-check", help="exact spot check of a germ file at a point")
    p.add_argument("germ")
    p.add_argument("--point", required=True, help='e.g. "t1=1,t2=1/2"')
    common(p)

    p = sub.add_parser("pipeline", help="full run: classify, nilshadow, grade, germ, bound")
    p.add_argument("file")
    p.add_argument("--target", default="sl2", help="algebra file, sl2, or gl:N")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--strategy", choices=STRATEGIES, default="metric")
    common(p)

    return parser


# -- shared helpers ---------------------------------------------------------------


def resolve_target(spec: str) -> tuple[dict, LieAlgebra]:
    if spec == "sl2":
        name, algebra = "sl2", fixtures.sl2()
    elif spec.startswith("gl:"):
        digits = spec[3:]
        # ASCII digits only: int() would also take signs, spaces, "_" and
        # non-ASCII digits ("gl:1_0" is gl(10)).
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"bad target spec {spec!r}; use gl:N with N in ASCII digits")
        n = int(digits)
        if n < 1:
            raise ParseError("gl:N needs N >= 1")
        name, algebra = f"gl{n}", fixtures.gl(n)
    else:
        parsed = load_algebra_file(spec)
        name, algebra = parsed.name, parsed.algebra
    return algebra_to_dict(algebra, name), algebra


def obtain_grading(
    parsed_grading: Grading | None, algebra: LieAlgebra, lcs: LowerCentralSeries
) -> tuple[Grading | None, str]:
    """The supplied grading, or else the inferred one, checked natural once
    against the series ``lcs``; a failing inferred candidate is dropped."""
    grading = parsed_grading or infer_grading_basis_aligned(algebra, lcs)
    if grading is None:
        return None, "none"
    violation = verify_natural_grading(algebra, lcs, grading)
    if parsed_grading is None:
        return (None, "none") if violation else (grading, "inferred")
    if violation is not None:
        raise PreconditionError(f"supplied grading is not natural: {violation}")
    basis_aligned_weights(grading)  # raises unless the layers are basis vectors
    return grading, "supplied"


def grading_rows(grading: Grading) -> list[list[list[str]]]:
    return [matrix_strings(layer.rows, layer.ambient_dim) for layer in grading.layers]


def bracket_text(algebra: LieAlgebra) -> str:
    """The nonzero brackets on one line, or a note that there are none."""
    pretty = [
        f"[{algebra.labels[i]}, {algebra.labels[j]}] = "
        + " + ".join(f"{c}*{algebra.labels[k]}" for k, c in sorted(comps.items()))
        for i, j, comps in algebra.nonzero_brackets()
    ]
    return "; ".join(pretty) if pretty else "none (abelian)"


def duality_verdict(dga: Dga) -> str:
    violation = pd_type_check(dga)
    return "pass" if violation is None else violation


def classification(algebra: LieAlgebra, lcs: LowerCentralSeries) -> dict:
    """The fields of ``check``."""
    return {
        "dim": algebra.dim,
        "jacobi": "pass",
        "solvable": is_solvable(algebra),
        "nilpotent": lcs.is_nilpotent,
        "nu": lcs.nu,
        "lower_central_dims": lcs.dims(),
        "unimodular": algebra.is_unimodular(),
    }


# -- the stages ---------------------------------------------------------------------


def stage(method):
    """A ``Run`` stage, kept once read; a failing one names itself on the run."""

    @functools.wraps(method)
    def compute(run: Run):
        try:
            return method(run)
        except Exception:
            run.failed_stage = run.failed_stage or method.__name__
            raise

    return functools.cached_property(compute)


class Run:
    """The stages of one invocation.  A caller may assign a stage before its
    first read (the degree-bound survey assigns ``target`` for a target that
    has neither a file nor a preset)."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.failed_stage: str | None = None

    def report(self, fields: dict, text: list[str]) -> dict:
        """``fields`` under the report header, with the text lines; a run on
        an algebra file names it and its digest."""
        header = {"schema_version": SCHEMA_VERSION, "command": self.args.command}
        if "file" in self.args:
            header.update(name=self.parsed.name, input_digest=self.parsed.digest)
        return {**header, **fields, "text": text}

    @stage
    def parsed(self) -> ParsedAlgebra:
        return load_algebra_file(self.args.file)

    @stage
    def target(self) -> tuple[dict, LieAlgebra]:
        return resolve_target(self.args.target)

    @stage
    def lcs(self) -> LowerCentralSeries:
        return lower_central_series(self.parsed.algebra)

    @stage
    def classify(self) -> dict:
        return classification(self.parsed.algebra, self.lcs)

    @stage
    def shadow(self) -> tuple[LieAlgebra, LowerCentralSeries, str]:
        """(nilshadow, its lower central series, how it was formed); without
        solvable data a nilpotent input is its own nilshadow."""
        parsed = self.parsed
        if parsed.nilradical is not None and parsed.complement is not None:
            data = SolvableInput(parsed.algebra, parsed.nilradical, parsed.complement)
            return *nilshadow(data), "computed from nilradical/complement data"
        if self.lcs.is_nilpotent:
            return parsed.algebra, self.lcs, "input already nilpotent; nilshadow is the identity"
        raise PreconditionError(
            "algebra is not nilpotent and no nilradical/complement data "
            "was provided; cannot form the nilshadow"
        )

    @property
    def base(self) -> LieAlgebra:
        """The algebra of the complex: ``pipeline``'s nilshadow, else the input."""
        return self.shadow[0] if self.args.command == "pipeline" else self.parsed.algebra

    @stage
    def grading(self) -> tuple[Grading | None, str]:
        """The base's grading; a supplied one holds only for the input."""
        parsed = self.parsed
        own = self.base is parsed.algebra
        return obtain_grading(
            parsed.grading if own else None,
            self.base,
            self.lcs if own else self.shadow[1],
        )

    @stage
    def complex(self) -> Dga:
        return Dga(self.base)

    @stage
    def pd_type(self) -> str:
        return duality_verdict(self.complex)

    @stage
    def split(self) -> Decomposition:
        return self._split(self.complex, self.grading[0])

    def _split(self, dga: Dga, grading: Grading | None) -> Decomposition:
        """``decompose`` splits every degree; the germ reads degrees <= GERM_TOP."""
        top = None if self.args.command == "decompose" else GERM_TOP
        return split_complex(dga, self.args.strategy, grading, top)

    @stage
    def cocycle_weights(self) -> dict | None:
        """Degree-2 cocycles within weight depth + 1; None without a grading."""
        grading = self.grading[0]
        if grading is None:
            return None
        kc = kernel_containment_check(self.split)
        return {"bound": grading.depth + 1, "satisfied": kc is None}

    @stage
    def tensor(self) -> TensorDgla:
        return TensorDgla(self.complex, self.target[1])

    @stage
    def germ(self) -> tuple[dict, dict]:
        return self.solve(self.split, self.tensor, None)

    def solve(
        self,
        dec: Decomposition,
        tdgla: TensorDgla,
        subdga_monomials: list[list[int]] | None,
    ) -> tuple[dict, dict]:
        """Solve and check the series on ``dec`` in ``tdgla``, C*(dec.dga)
        tensor the target; returns (germ file, summary)."""
        grading = dec.grading
        betti = dec.dga.betti()
        if dec.betti() != betti[: len(dec.splits)]:
            raise InternalCheckError(
                f"split gives betti {dec.betti()} in degrees <= {GERM_TOP}, "
                f"ranks of d give {betti}"
            )
        series = kuranishi_series(dec, tdgla, self.args.cap)
        system = obstruction_system(series)
        if series.terminated:
            failure = gauge_identity_check(series)
            if failure is not None:
                raise InternalCheckError(f"gauge identity failed: {failure}")
        degree_bound = None
        if grading is not None and series.terminated:
            witness = verify_degree_bound(system, grading.depth)
            degree_bound = {"bound": grading.depth + 1, "satisfied": witness is None}
            if witness is not None:
                degree_bound["witness"] = str(witness)
        # The germ's depth in the report; None if not rendered (text, pipeline's selection).
        pipeline = self.args.command == "pipeline"
        depth = None if self.args.json is None or pipeline and subdga_monomials else int(pipeline)
        germ = germ_to_dict(
            series,
            system,
            base=algebra_to_dict(dec.dga.algebra, self.parsed.name),
            target=self.target[0],
            strategy=self.args.strategy,
            grading_labels=grading_rows(grading) if grading is not None else None,
            subdga_monomials=subdga_monomials,
            degree_bound=degree_bound,
            depth=depth,
        )
        summary = {
            "variables": len(series.variables),
            "betti": betti,
            "terminated": series.terminated,
            "last_nonzero_degree": series.last_nonzero,
            "cap": series.cap,
            "max_degree": system.max_degree,
            "smooth": system.is_smooth,
            "polynomials": len(system.polynomials),
            "degree_bound": degree_bound,
        }
        return germ, summary

    @stage
    def selection(self) -> Dga | None:
        """The verified complex on the monomials that the selection file, else
        the algebra file's characters, names; None without either."""
        ambient, spec, path = self.complex, self.parsed.characters, self.args.selection
        if path is not None:
            # Explicit monomials, character data, or a bare character object.
            spec = load_json_file(path)
            if "characters" not in spec and "monomials" not in spec:
                spec = {"characters": spec}
            spec = parse_subdga_spec(spec, ambient, path)
        if spec is None:
            return None
        if isinstance(spec, CharacterData):
            return subdga_from_characters(ambient, spec)
        violation = verify_subdga(ambient, spec)
        if violation is not None:
            raise PreconditionError(f"selection is not a sub-DGA: {violation}")
        return ambient.restrict(spec)

    @stage
    def sub_tensor(self) -> TensorDgla:
        return TensorDgla(self.selection, self.target[1])

    @stage
    def sub_germ(self) -> tuple[dict, dict]:
        """The selection's own germ, split without a grading."""
        sub = self.selection
        return self.solve(self._split(sub, None), self.sub_tensor, subdga_to_monomial_lists(sub))

    @stage
    def embedding(self) -> dict:
        """The inclusion of the selection preserves flatness residuals."""
        compared, witness = linear_embedding_check(self.sub_tensor, self.tensor)
        if witness is not None:
            raise InternalCheckError(f"inclusion does not preserve residuals: {witness}")
        return {"samples": compared, "agree": True}


# -- subcommands --------------------------------------------------------------------


def cmd_check(run: Run) -> dict:
    name, info = run.parsed.name, run.classify
    return run.report(info, [
        f"algebra {name}: dim={info['dim']} jacobi=pass",
        f"solvable={info['solvable']} nilpotent={info['nilpotent']}"
        + (f" nu={info['nu']}" if info["nu"] is not None else ""),
        f"lower central dims: {info['lower_central_dims']}",
        f"unimodular={info['unimodular']}",
    ])


def cmd_nilshadow(run: Run) -> dict:
    parsed = run.parsed
    if parsed.nilradical is None or parsed.complement is None:
        raise ParseError(
            f"{parsed.name}: nilshadow needs 'nilradical' and 'complement' entries"
        )
    shadow, lcs, _ = run.shadow
    nilradical = parsed.nilradical.rows
    unchanged = all(
        shadow.bracket(u, v) == parsed.algebra.bracket(u, v)
        for u in nilradical
        for v in nilradical
    )
    return run.report({
        "nilshadow_algebra": algebra_to_dict(shadow, f"{parsed.name}_nilshadow"),
        "nu": lcs.nu,
        "lower_central_dims": lcs.dims(),
        "bracket_fixed_on_nilradical": unchanged,
    }, [
        f"nilshadow of {parsed.name} on basis ({', '.join(shadow.labels)})",
        "nonzero brackets: " + bracket_text(shadow),
        f"nilpotent with nu={lcs.nu}; lower central dims {lcs.dims()}",
        f"bracket unchanged on the nilradical: {unchanged}",
    ])


def cmd_decompose(run: Run) -> dict:
    dga, dec = run.complex, run.split
    grading, grading_how = run.grading
    strategy = run.args.strategy
    betti = dec.betti()
    harmonic = {
        str(p): [dga.cochain_label(p, row) for row in dec.harmonic_basis(p)]
        for p in range(len(dec.splits))
    }
    fields = {
        "strategy": strategy,
        "grading": grading_how,
        "betti": betti,
        "degree_dims": dga.dims(),
        "split_dims": [
            {
                "degree": p,
                "harmonic": len(split.harmonic),
                "exact": len(split.exact),
                "complement": len(split.complement),
            }
            for p, split in enumerate(dec.splits)
        ],
        "harmonic_bases": harmonic,
    }
    text = [
        f"complex of {run.parsed.name}: degree dims {dga.dims()}",
        f"strategy={strategy} grading={grading_how}",
        f"betti numbers: {betti}",
    ]
    for p, split in enumerate(dec.splits):
        text.append(
            f"degree {p}: harmonic={len(split.harmonic)} "
            f"exact={len(split.exact)} complement={len(split.complement)}"
        )
        if split.harmonic:
            text.append("  harmonic basis: " + "; ".join(harmonic[str(p)]))
    if grading is not None:
        rows = {
            str(w): [dga.monomial_label(m) for m in monos]
            for w, monos in degree2_weight_table(dga, dec.weights).items()
        }
        fields["degree2_weight_table"] = rows
        fields["degree2_cocycle_weight_bound"] = bound = run.cocycle_weights
        text.append("degree-2 weight table: " + "; ".join(
            f"w={w}: {', '.join(monos)}" for w, monos in rows.items()
        ))
        text.append(_weights_verdict(bound))
    return run.report(fields, text)


def cmd_subdga(run: Run) -> dict:
    sub = run.selection
    if sub is None:
        raise ParseError(
            "no selection given: pass --characters FILE or embed 'characters' "
            "in the algebra file"
        )
    labels = [sub.monomial_label(mono) for level in sub.monomials for mono in level]
    verdict = duality_verdict(sub)
    return run.report({
        "selected_monomials": subdga_to_monomial_lists(sub),
        "degree_counts": sub.dims(),
        "verification": "pass",
        "pd_type": verdict,
    }, [
        f"selection in the complex of {run.parsed.name}: "
        f"{sum(sub.dims())} monomials, degree counts {sub.dims()}",
        "selected: " + ", ".join(labels),
        "closed under d and wedge: pass",
        f"duality-type check: {verdict}",
    ])


def _weights_verdict(bound: dict) -> str:
    return f"degree-2 cocycles confined to weight <= {bound['bound']}: {bound['satisfied']}"


def _bound_verdict(summary: dict) -> str:
    bound = summary["degree_bound"]
    return f"max degree {summary['max_degree']} <= {bound['bound']}: " + (
        "PASS" if bound["satisfied"] else "FAIL"
    )


def cmd_kuranishi(run: Run) -> dict:
    args = run.args
    run.parsed, run.target  # the input file's errors come first, then the target's
    if args.selection is not None:
        germ, summary = run.sub_germ
        germ["embedding_check"] = run.embedding
        grading_how = "none (sub-DGA run)"
    else:
        germ, summary = run.germ
        grading_how = run.grading[1]

    text = [
        f"deformation series for {run.parsed.name} with target {args.target}",
        f"strategy={args.strategy} grading={grading_how}",
        f"variables: {summary['variables']}; betti {summary['betti']}",
        f"series: last nonzero degree {summary['last_nonzero_degree']}, "
        f"cap {summary['cap']}, terminated={summary['terminated']}",
    ]
    if not summary["terminated"]:
        text.append(
            f"warning: truncated; system valid modulo degree > {summary['cap']}"
        )
    if summary["smooth"]:
        text.append("germ is smooth at origin (no obstruction equations)")
    else:
        text.append(
            f"obstructions: {summary['polynomials']} polynomials, "
            f"max total degree {summary['max_degree']}"
        )
        for label, pretty in zip(
            germ["obstructions"]["coordinates"], germ["obstructions"]["pretty"]
        ):
            if pretty != "0":
                text.append(f"  {label}: {pretty} = 0")
    if summary["degree_bound"] is not None:
        text.append("degree bound: " + _bound_verdict(summary))
    if args.selection is not None:
        text.append(
            f"inclusion residual agreement on {germ['embedding_check']['samples']} "
            "samples: pass"
        )
    germ["text"] = text
    return germ


def cmd_mc_check(run: Run) -> dict:
    args = run.args
    germ = germ_from_dict(load_json_file(args.germ), args.germ)
    point = parse_point(args.point, germ.variables)
    at = PointPowers(point)
    omega = germ.phi.eval(at)
    values = [poly.eval(at) for poly in germ.polynomials]
    residual = mc_residual(germ.tdgla, omega)
    gauge = germ.tdgla.apply_matrix(germ.decomposition.delta_cols(1), omega)
    vanish = not any(values)
    residual_text = germ.tdgla.element_str(2, residual)
    text = [
        f"point: {args.point}",
        f"obstruction values vanish: {vanish}",
        f"flatness residual zero: {not residual}",
        f"gauge condition zero: {not gauge}",
    ]
    if not vanish:
        nonzero = [
            f"{label} = {v}" for label, v in zip(germ.coordinates, values) if v
        ]
        text.append("nonzero obstructions: " + "; ".join(nonzero))
    elif (residual or gauge) and germ.terminated:
        # A terminated series' obstructions vanish only at exactly flat
        # points; a truncated one's hold only modulo degree > cap.
        raise ParseError(
            f"{args.germ}: obstructions vanish but the point is not flat: "
            f"residual {residual_text}; the file's obstructions disagree with its phi"
        )
    if not vanish or residual:
        text.append(f"residual: {residual_text}")
    return run.report({
        "point": {name: str(v) for name, v in zip(germ.variables, point)},
        "obstruction_values": {
            label: str(v) for label, v in zip(germ.coordinates, values)
        },
        "obstructions_vanish": vanish,
        "residual_is_zero": not residual,
        "gauge_is_zero": not gauge,
        "residual": residual_text,
        "terminated_series": germ.terminated,
        "consistent": not (vanish and (residual or gauge)),
    }, text)


def cmd_pipeline(run: Run) -> dict:
    args, name = run.args, run.parsed.name
    run.target  # a bad --target is reported before the input is classified
    text = [f"pipeline: {name} -> target {args.target}"]

    info = run.classify
    stages = [{"stage": "classify", **info}]
    text.append(
        f"[classify] dim={info['dim']} jacobi=pass solvable={info['solvable']} "
        f"nilpotent={info['nilpotent']} unimodular={info['unimodular']}"
    )

    shadow, shadow_lcs, how = run.shadow
    stages.append({
        "stage": "nilshadow",
        "how": how,
        "nu": shadow_lcs.nu,
        "algebra": algebra_to_dict(shadow, f"{name}_nilshadow"),
    })
    text.append(
        f"[nilshadow] {how}; nu={shadow_lcs.nu}; brackets: {bracket_text(shadow)}"
    )

    grading, grading_how = run.grading
    stages.append({
        "stage": "grading",
        "how": grading_how,
        "layers": grading_rows(grading) if grading is not None else None,
    })
    text.append(f"[grading] {grading_how}"
                + (f", {grading.depth} layers" if grading is not None else ""))

    stages.append({"stage": "pd_type", "verdict": run.pd_type})
    text.append(f"[pd-type] {run.pd_type}")

    bound = run.cocycle_weights
    if bound is not None:
        stages.append({"stage": "degree2_cocycle_weights", **bound})
        text.append("[cocycle-weights] " + _weights_verdict(bound))

    germ, summary = run.germ
    stages.append({"stage": "germ", **summary})
    text.append(
        f"[decompose] betti {summary['betti']} (strategy {args.strategy})"
    )
    text.append(
        f"[germ] variables={summary['variables']} "
        f"terminated={summary['terminated']} "
        f"last nonzero degree {summary['last_nonzero_degree']}"
    )
    if summary["smooth"]:
        text.append("[germ] smooth at origin (no obstruction equations)")
    else:
        text.append(
            f"[germ] {summary['polynomials']} obstruction polynomials, "
            f"max total degree {summary['max_degree']}"
        )
    if summary["degree_bound"] is not None:
        text.append("[bound] " + _bound_verdict(summary))

    sub = run.selection
    if sub is not None:
        _, sub_sum = run.sub_germ
        embedding = run.embedding
        kept = ("betti", "variables", "terminated", "max_degree", "smooth")
        stages.append({
            "stage": "character_subdga",
            "degree_counts": sub.dims(),
            **{key: sub_sum[key] for key in kept},
            "embedding_samples": embedding["samples"],
            "embedding_agree": embedding["agree"],
        })
        text.append(
            f"[sub-dga] degree counts {sub.dims()}, betti "
            f"{sub_sum['betti']}, variables={sub_sum['variables']}, "
            + ("smooth germ" if sub_sum["smooth"] else
               f"max degree {sub_sum['max_degree']}")
        )
        text.append(
            f"[embedding] residual agreement on {embedding['samples']} samples: pass"
        )

    return run.report({
        "target": args.target,
        "strategy": args.strategy,
        "stages": stages,
        "germ": germ,
    }, text)
