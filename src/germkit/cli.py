"""Command-line surface.

Subcommands: check, nilshadow, decompose, subdga, kuranishi, mc-check,
pipeline.  Exit codes: 0 success (also when the reader of stdout closes it
early), 1 mathematical precondition failure, 2 parse error or an unwritable
output path, 3 internal invariant violation or any other engine error
(one line on stderr, no traceback).  ``--json`` switches any subcommand to
its machine-readable mirror (optionally into a file); the text and JSON
forms are rendered from the same report object.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import fixtures
from .cedga import (
    CharacterData,
    Dga,
    Monomial,
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
    SpotCheckResult,
    gauge_identity_check,
    kuranishi_series,
    linear_embedding_check,
    mc_residual,
    obstruction_system,
    random_rational_samples,
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

EMBEDDING_SAMPLES = 20


def entrypoint() -> None:
    sys.exit(main())


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 0
    try:
        report = args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # Last resort: any other failure is an engine bug, reported in one
        # line that names the subcommand, not as a traceback.
        print(
            f"internal error in {args.command}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
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


def emit(report: dict, args) -> None:
    if getattr(args, "json", None) is not None:
        payload = render_json(report)
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload)
            print(f"wrote {args.json}")
    else:
        for line in report["text"]:
            print(line)
    sys.stdout.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germkit",
        description=(
            "Exact computations with Lie algebra cochain complexes: "
            "nilshadows, splittings, and deformation germs."
        ),
    )
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
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("nilshadow", help="compute the nilshadow of a solvable algebra")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=cmd_nilshadow)

    p = sub.add_parser("decompose", help="split the cochain complex degree by degree")
    p.add_argument("file")
    p.add_argument("--strategy", choices=STRATEGIES, default="metric")
    common(p)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("subdga", help="select an invariant monomial sub-DGA")
    p.add_argument("file")
    p.add_argument("--characters", metavar="PATH", default=None)
    common(p)
    p.set_defaults(handler=cmd_subdga)

    p = sub.add_parser("kuranishi", help="solve the deformation series and emit the germ")
    p.add_argument("file")
    p.add_argument("--target", required=True, help="algebra file, sl2, or gl:N")
    p.add_argument("--subdga", metavar="PATH", default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--strategy", choices=STRATEGIES, default="metric")
    common(p)
    p.set_defaults(handler=cmd_kuranishi)

    p = sub.add_parser("mc-check", help="exact spot check of a germ file at a point")
    p.add_argument("germ")
    p.add_argument("--point", required=True, help='e.g. "t1=1,t2=1/2"')
    common(p)
    p.set_defaults(handler=cmd_mc_check)

    p = sub.add_parser("pipeline", help="full run: classify, nilshadow, grade, germ, bound")
    p.add_argument("file")
    p.add_argument("--target", default="sl2", help="algebra file, sl2, or gl:N")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--strategy", choices=STRATEGIES, default="metric")
    common(p)
    p.set_defaults(handler=cmd_pipeline)

    return parser


# -- shared helpers ---------------------------------------------------------------


def resolve_target(spec: str) -> tuple[dict, LieAlgebra]:
    if spec == "sl2":
        algebra = fixtures.sl2()
        return algebra_to_dict(algebra, "sl2"), algebra
    if spec.startswith("gl:"):
        digits = spec[3:]
        # ASCII digits only: int() would also take signs, spaces, "_" and
        # non-ASCII digits ("gl:1_0" is gl(10)).
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"bad target spec {spec!r}; use gl:N with N in ASCII digits")
        n = int(digits)
        if n < 1:
            raise ParseError("gl:N needs N >= 1")
        algebra = fixtures.gl(n)
        return algebra_to_dict(algebra, f"gl{n}"), algebra
    parsed = load_algebra_file(spec)
    return algebra_to_dict(parsed.algebra, parsed.name), parsed.algebra


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


def classification(algebra: LieAlgebra) -> tuple[dict, LowerCentralSeries]:
    """The fields of ``check``, and the series that later stages reuse."""
    lcs = lower_central_series(algebra)
    return {
        "dim": algebra.dim,
        "jacobi": "pass",
        "solvable": is_solvable(algebra),
        "nilpotent": lcs.is_nilpotent,
        "nu": lcs.nu,
        "lower_central_dims": lcs.dims(),
        "unimodular": algebra.is_unimodular(),
    }, lcs


# -- subcommands --------------------------------------------------------------------


def cmd_check(args) -> dict:
    parsed = load_algebra_file(args.file)
    info, _ = classification(parsed.algebra)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "name": parsed.name,
        "input_digest": parsed.digest,
        **info,
    }
    report["text"] = [
        f"algebra {parsed.name}: dim={info['dim']} jacobi=pass",
        f"solvable={info['solvable']} nilpotent={info['nilpotent']}"
        + (f" nu={info['nu']}" if info["nu"] is not None else ""),
        f"lower central dims: {info['lower_central_dims']}",
        f"unimodular={info['unimodular']}",
    ]
    return report


def _require_solvable_data(parsed: ParsedAlgebra) -> SolvableInput:
    if parsed.nilradical is None or parsed.complement is None:
        raise ParseError(
            f"{parsed.name}: nilshadow needs 'nilradical' and 'complement' entries"
        )
    return SolvableInput(
        algebra=parsed.algebra,
        nilradical=parsed.nilradical,
        complement=parsed.complement,
    )


def cmd_nilshadow(args) -> dict:
    parsed = load_algebra_file(args.file)
    data = _require_solvable_data(parsed)
    shadow, lcs = nilshadow(data)
    brackets_unchanged = all(
        shadow.bracket(u, v) == parsed.algebra.bracket(u, v)
        for u in data.nilradical.rows
        for v in data.nilradical.rows
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "nilshadow",
        "name": parsed.name,
        "input_digest": parsed.digest,
        "nilshadow_algebra": algebra_to_dict(shadow, f"{parsed.name}_nilshadow"),
        "nu": lcs.nu,
        "lower_central_dims": lcs.dims(),
        "bracket_fixed_on_nilradical": brackets_unchanged,
    }
    report["text"] = [
        f"nilshadow of {parsed.name} on basis ({', '.join(shadow.labels)})",
        "nonzero brackets: " + bracket_text(shadow),
        f"nilpotent with nu={lcs.nu}; lower central dims {lcs.dims()}",
        f"bracket unchanged on the nilradical: {brackets_unchanged}",
    ]
    return report


def cmd_decompose(args) -> dict:
    parsed = load_algebra_file(args.file)
    dga = Dga(parsed.algebra)
    grading, grading_how = obtain_grading(
        parsed.grading, parsed.algebra, lower_central_series(parsed.algebra)
    )
    dec = split_complex(dga, strategy=args.strategy, grading=grading)
    betti = dec.betti()
    harmonic = {
        str(p): [dga.cochain_label(p, row) for row in dec.harmonic_basis(p)]
        for p in range(len(dec.splits))
    }
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "decompose",
        "name": parsed.name,
        "input_digest": parsed.digest,
        "strategy": args.strategy,
        "grading": grading_how,
        "betti": betti,
        "degree_dims": dga.dims(),
        "split_dims": [
            {
                "degree": p,
                "harmonic": len(dec.splits[p].harmonic),
                "exact": len(dec.splits[p].exact),
                "complement": len(dec.splits[p].complement),
            }
            for p in range(len(dec.splits))
        ],
        "harmonic_bases": harmonic,
    }
    text = [
        f"complex of {parsed.name}: degree dims {dga.dims()}",
        f"strategy={args.strategy} grading={grading_how}",
        f"betti numbers: {betti}",
    ]
    for p in range(len(dec.splits)):
        split = dec.splits[p]
        text.append(
            f"degree {p}: harmonic={len(split.harmonic)} "
            f"exact={len(split.exact)} complement={len(split.complement)}"
        )
        if split.harmonic:
            text.append("  harmonic basis: " + "; ".join(harmonic[str(p)]))
    if grading is not None:
        table = degree2_weight_table(dga, dec.weights)
        rows = {
            str(w): [dga.monomial_label(m) for m in monos]
            for w, monos in table.items()
        }
        report["degree2_weight_table"] = rows
        kc = kernel_containment_check(dec)
        report["degree2_cocycle_weight_bound"] = {
            "bound": grading.depth + 1,
            "satisfied": kc is None,
        }
        text.append("degree-2 weight table: " + "; ".join(
            f"w={w}: {', '.join(monos)}" for w, monos in rows.items()
        ))
        text.append(
            f"degree-2 cocycles confined to weight <= {grading.depth + 1}: "
            f"{kc is None}"
        )
    report["text"] = text
    return report


def _load_selection(path: str, dga: Dga) -> list[list[Monomial]] | CharacterData:
    """A selection file: explicit monomials, character data, or a bare
    character object."""
    spec = load_json_file(path)
    if "characters" not in spec and "monomials" not in spec:
        spec = {"characters": spec}
    return parse_subdga_spec(spec, dga, path)


def _selection_from_args(args, parsed: ParsedAlgebra, dga: Dga):
    if args.characters is not None:
        return _load_selection(args.characters, dga)
    if parsed.characters is not None:
        return parsed.characters
    raise ParseError(
        "no selection given: pass --characters FILE or embed 'characters' "
        "in the algebra file"
    )


def _subdga(spec: list[list[Monomial]] | CharacterData, dga: Dga) -> Dga:
    """The complex on the monomials a selection names, verified once."""
    if isinstance(spec, CharacterData):
        return subdga_from_characters(dga, spec)
    violation = verify_subdga(dga, spec)
    if violation is not None:
        raise PreconditionError(f"selection is not a sub-DGA: {violation}")
    return Dga(dga.algebra, spec)


def cmd_subdga(args) -> dict:
    parsed = load_algebra_file(args.file)
    dga = Dga(parsed.algebra)
    sub = _subdga(_selection_from_args(args, parsed, dga), dga)
    pd = pd_type_check(sub)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "subdga",
        "name": parsed.name,
        "input_digest": parsed.digest,
        "selected_monomials": subdga_to_monomial_lists(sub),
        "degree_counts": sub.dims(),
        "verification": "pass",
        "pd_type": "pass" if pd is None else pd,
    }
    labels = [
        dga.monomial_label(mono) for level in sub.monomials for mono in level
    ]
    report["text"] = [
        f"selection in the complex of {parsed.name}: "
        f"{sum(sub.dims())} monomials, degree counts {sub.dims()}",
        "selected: " + ", ".join(labels),
        "closed under d and wedge: pass",
        f"duality-type check: {report['pd_type']}",
    ]
    return report


def _run_germ(
    args,
    base: dict,
    dec: Decomposition,
    target: tuple[dict, LieAlgebra],
    subdga_monomials: list[list[int]] | None = None,
) -> tuple[dict, dict]:
    """Solve and check the series; returns (germ file, summary)."""
    grading = dec.grading
    betti = dec.dga.betti()
    if dec.betti() != betti[: len(dec.splits)]:
        raise InternalCheckError(
            f"split gives betti {dec.betti()} in degrees <= {GERM_TOP}, "
            f"ranks of d give {betti}"
        )
    series = kuranishi_series(dec, target[1], args.cap)
    system = obstruction_system(series)
    if series.terminated:
        failure = gauge_identity_check(series)
        if failure is not None:
            raise InternalCheckError(f"gauge identity failed: {failure}")
    degree_bound = None
    if grading is not None and series.terminated:
        witness = verify_degree_bound(system, grading.depth)
        degree_bound = {
            "bound": grading.depth + 1,
            "satisfied": witness is None,
        }
        if witness is not None:
            degree_bound["witness"] = str(witness)
    germ = germ_to_dict(
        series,
        system,
        base=base,
        target=target[0],
        strategy=args.strategy,
        grading_labels=grading_rows(grading) if grading is not None else None,
        subdga_monomials=subdga_monomials,
        degree_bound=degree_bound,
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


def _subdga_germ(
    args, base: dict, sub: Dga, ambient: Dga, target: tuple[dict, LieAlgebra]
) -> tuple[dict, dict]:
    """The sub-DGA's own germ, after checking that its inclusion into the
    ambient complex preserves flatness residuals on rational samples."""
    germ, summary = _run_germ(
        args, base, split_complex(sub, args.strategy, None, GERM_TOP), target,
        subdga_to_monomial_lists(sub),
    )
    samples = random_rational_samples(
        EMBEDDING_SAMPLES, sub.dim_at(1) * target[1].dim
    )
    witness = linear_embedding_check(sub, ambient, target[1], samples)
    if witness is not None:
        raise InternalCheckError(
            f"inclusion does not preserve residuals on sample {witness[0]}: "
            f"{witness[1]}"
        )
    germ["embedding_check"] = {"samples": EMBEDDING_SAMPLES, "agree": True}
    return germ, summary


def _bound_verdict(summary: dict) -> str:
    bound = summary["degree_bound"]
    return f"max degree {summary['max_degree']} <= {bound['bound']}: " + (
        "PASS" if bound["satisfied"] else "FAIL"
    )


def cmd_kuranishi(args) -> dict:
    parsed = load_algebra_file(args.file)
    target = resolve_target(args.target)
    base = algebra_to_dict(parsed.algebra, parsed.name)
    full = Dga(parsed.algebra)
    if args.subdga is not None:
        spec = _load_selection(args.subdga, full)
        grading_how = "none (sub-DGA run)"
        germ, summary = _subdga_germ(args, base, _subdga(spec, full), full, target)
    else:
        grading, grading_how = obtain_grading(
            parsed.grading, parsed.algebra, lower_central_series(parsed.algebra)
        )
        dec = split_complex(full, args.strategy, grading, GERM_TOP)
        germ, summary = _run_germ(args, base, dec, target)

    text = [
        f"deformation series for {parsed.name} with target {args.target}",
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
    if args.subdga is not None:
        text.append(
            f"inclusion residual agreement on {EMBEDDING_SAMPLES} samples: pass"
        )
    germ["text"] = text
    return germ


def cmd_mc_check(args) -> dict:
    germ = germ_from_dict(load_json_file(args.germ), args.germ)
    point = parse_point(args.point, germ.variables)
    at = PointPowers(point)
    omega = germ.phi.eval(at)
    check = SpotCheckResult(
        [poly.eval(at) for poly in germ.polynomials],
        mc_residual(germ.tdgla, omega),
        germ.tdgla.apply_matrix(germ.decomposition.delta_cols(1), omega),
    )
    values = check.obstruction_values
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "mc-check",
        "point": {name: str(v) for name, v in zip(germ.variables, point)},
        "obstruction_values": {
            label: str(v) for label, v in zip(germ.coordinates, values)
        },
        "obstructions_vanish": check.obstructions_vanish,
        "residual_is_zero": check.residual_is_zero,
        "gauge_is_zero": check.gauge_is_zero,
        "residual": germ.tdgla.element_str(2, check.residual),
        "terminated_series": germ.terminated,
        "consistent": check.consistent,
    }
    text = [
        f"point: {args.point}",
        f"obstruction values vanish: {check.obstructions_vanish}",
        f"flatness residual zero: {check.residual_is_zero}",
        f"gauge condition zero: {check.gauge_is_zero}",
    ]
    if not check.obstructions_vanish:
        nonzero = [
            f"{label} = {v}" for label, v in zip(germ.coordinates, values) if v
        ]
        text.append("nonzero obstructions: " + "; ".join(nonzero))
        text.append(f"residual: {report['residual']}")
    if not check.consistent:
        raise InternalCheckError(
            "obstructions vanish but the point is not flat: "
            f"residual {report['residual']}"
        )
    report["text"] = text
    return report


def cmd_pipeline(args) -> dict:
    parsed = load_algebra_file(args.file)
    target = resolve_target(args.target)
    stages: list[dict] = []
    text: list[str] = [f"pipeline: {parsed.name} -> target {args.target}"]

    info, lcs = classification(parsed.algebra)
    stages.append({"stage": "classify", **info})
    text.append(
        f"[classify] dim={info['dim']} jacobi=pass solvable={info['solvable']} "
        f"nilpotent={info['nilpotent']} unimodular={info['unimodular']}"
    )

    if parsed.nilradical is not None and parsed.complement is not None:
        shadow, shadow_lcs = nilshadow(_require_solvable_data(parsed))
        how = "computed from nilradical/complement data"
    elif info["nilpotent"]:
        shadow, shadow_lcs = parsed.algebra, lcs
        how = "input already nilpotent; nilshadow is the identity"
    else:
        raise PreconditionError(
            "algebra is not nilpotent and no nilradical/complement data "
            "was provided; cannot form the nilshadow"
        )
    stages.append(
        {
            "stage": "nilshadow",
            "how": how,
            "nu": shadow_lcs.nu,
            "algebra": algebra_to_dict(shadow, f"{parsed.name}_nilshadow"),
        }
    )
    text.append(
        f"[nilshadow] {how}; nu={shadow_lcs.nu}; brackets: {bracket_text(shadow)}"
    )

    grading, grading_how = obtain_grading(
        parsed.grading if shadow is parsed.algebra else None, shadow, shadow_lcs
    )
    stages.append(
        {
            "stage": "grading",
            "how": grading_how,
            "layers": grading_rows(grading) if grading is not None else None,
        }
    )
    text.append(f"[grading] {grading_how}"
                + (f", {grading.depth} layers" if grading is not None else ""))

    dga = Dga(shadow)
    pd = pd_type_check(dga)
    stages.append({"stage": "pd_type", "verdict": "pass" if pd is None else pd})
    text.append(f"[pd-type] {'pass' if pd is None else pd}")

    dec = split_complex(dga, args.strategy, grading, GERM_TOP)
    if grading is not None:
        kc = kernel_containment_check(dec)
        stages.append(
            {
                "stage": "degree2_cocycle_weights",
                "bound": grading.depth + 1,
                "satisfied": kc is None,
            }
        )
        text.append(
            f"[cocycle-weights] degree-2 cocycles confined to weight <= "
            f"{grading.depth + 1}: {kc is None}"
        )

    base = algebra_to_dict(shadow, parsed.name)
    germ, summary = _run_germ(args, base, dec, target)
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

    if parsed.characters is not None:
        sub = _subdga(parsed.characters, dga)
        _, sub_sum = _subdga_germ(args, base, sub, dga, target)
        kept = ("betti", "variables", "terminated", "max_degree", "smooth")
        stages.append(
            {
                "stage": "character_subdga",
                "degree_counts": sub.dims(),
                **{key: sub_sum[key] for key in kept},
                "embedding_samples": EMBEDDING_SAMPLES,
                "embedding_agree": True,
            }
        )
        text.append(
            f"[sub-dga] degree counts {sub.dims()}, betti "
            f"{sub_sum['betti']}, variables={sub_sum['variables']}, "
            + ("smooth germ" if sub_sum["smooth"] else
               f"max degree {sub_sum['max_degree']}")
        )
        text.append(
            f"[embedding] residual agreement on {EMBEDDING_SAMPLES} samples: pass"
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "command": "pipeline",
        "name": parsed.name,
        "input_digest": parsed.digest,
        "target": args.target,
        "strategy": args.strategy,
        "stages": stages,
        "germ": germ,
        "text": text,
    }
