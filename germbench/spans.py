"""Layer spans for traced passes, recorded from outside germkit.

``Tracer.installed()`` replaces each entry of WRAPS with a wrapper that
records a span (name, start, end, parent, job) and restores the originals
on exit; nothing under ``src/`` changes.  Wrappers sit where a name is
looked up: ``germkit.cli`` imports its helpers by name, so those are
wrapped on ``germkit.cli``, while intra-package calls such as
``kernel_basis -> rref`` go through module globals (``germkit.linalg.rref``)
or class attributes (``TensorDgla.bracket11``).  Spans therefore nest, and
a span's self time is its duration minus that of its direct children.

Counters (cells, terms, bytes, coefficient heights) are taken from the
wrapped call's arguments and result inside a ``trace.count`` child span, so
the counting never shows up as self time of a germkit layer.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

COUNT_SPAN = "trace.count"
JOB_SPAN = "cli.main"


def _coef_bits(values) -> int:
    bits = 0
    for x in values:
        for part in (x.re, x.im):
            bits = max(bits, abs(part.numerator).bit_length(), part.denominator.bit_length())
    return bits


def _phi_values(slices):
    return (c for terms in slices.values() for vec in terms.values() for c in vec.values())


def _poly_values(polys):
    return (c for p in polys for c in p.terms.values())


def _count_split(counts, args, result):
    counts["decomp.dense_cells"] += sum(len(level) ** 2 for level in args[0].monomials)


def _count_rref(counts, args, result):
    counts["linalg.rref.cells"] += len(args[0]) * args[1]


def _count_complex(counts, args, result):
    dga = args[0]
    counts["cedga.monomials"] += sum(len(level) for level in dga.monomials)
    counts["cedga.d_nnz"] += sum(1 for m in dga.d for row in m for x in row if x)


def _count_series(counts, args, result):
    counts["kuranishi.phi_terms"] += sum(
        len(vec) for terms in result.slices.values() for vec in terms.values()
    )
    counts["kuranishi.last_nonzero_degree"] = max(
        counts["kuranishi.last_nonzero_degree"], result.last_nonzero
    )
    counts["scalars.coef_bits_max"] = max(
        counts["scalars.coef_bits_max"], _coef_bits(_phi_values(result.slices))
    )


def _count_polys(counts, polys):
    counts["multipoly.obstruction_terms"] += sum(len(p.terms) for p in polys)
    counts["scalars.coef_bits_max"] = max(
        counts["scalars.coef_bits_max"], _coef_bits(_poly_values(polys))
    )


def _count_obstruction(counts, args, result):
    _count_polys(counts, result.polynomials)


def _count_germ_read(counts, args, result):
    _count_polys(counts, result.polynomials)
    counts["scalars.coef_bits_max"] = max(
        counts["scalars.coef_bits_max"], _coef_bits(_phi_values(result.phi.slices))
    )


def _count_render(counts, args, result):
    counts["formats.json_bytes"] += len(result.encode("utf-8"))


# (module, attribute path, span name, counter).  One span name may cover
# several lookup sites of the same function.
WRAPS = (
    ("germkit.cli", "load_algebra_file", "formats.parse", None),
    ("germkit.cli", "load_json_file", "formats.parse", None),
    ("germkit.formats", "load_json_file", "formats.parse", None),
    ("germkit.formats", "parse_algebra_dict", "formats.parse", None),
    ("germkit.cli", "germ_from_dict", "formats.germ_read", _count_germ_read),
    ("germkit.cli", "germ_to_dict", "formats.germ_write", None),
    ("germkit.cli", "render_json", "formats.render", _count_render),
    ("germkit.cli", "classification", "liealg.classify", None),
    ("germkit.cli", "obtain_grading", "liealg.grading", None),
    ("germkit.cli", "nilshadow", "nilshadow.nilshadow", None),
    ("germkit.nilshadow", "jordan_chevalley", "jordan.jordan_chevalley", None),
    ("germkit.cedga", "Dga.__init__", "cedga.complex", _count_complex),
    ("germkit.cli", "pd_type_check", "cedga.pd_type", None),
    ("germkit.cli", "subdga_from_characters", "cedga.subdga", None),
    ("germkit.cli", "verify_subdga", "cedga.subdga", None),
    ("germkit.cli", "split_complex", "decomp.split", _count_split),
    ("germkit.formats", "split_complex", "decomp.split", _count_split),
    ("germkit.linalg", "rref", "linalg.rref", _count_rref),
    ("germkit.linalg", "mat_mul", "linalg.mat_mul", None),
    ("germkit.cli", "kuranishi_series", "kuranishi.series", _count_series),
    ("germkit.cli", "obstruction_system", "kuranishi.obstruction", _count_obstruction),
    ("germkit.cli", "gauge_identity_check", "kuranishi.gauge", None),
    ("germkit.cli", "linear_embedding_check", "kuranishi.embedding", None),
    ("germkit.cli", "mc_residual", "kuranishi.mc_residual", None),
    ("germkit.kuranishi", "mc_residual", "kuranishi.mc_residual", None),
    ("germkit.kuranishi", "TensorDgla.bracket11", "kuranishi.bracket11", None),
    ("germkit.multipoly", "MultiPoly.eval", "multipoly.eval", None),
)

# metric -> (span name, "incl" | "self").  "incl" sums spans with no
# ancestor of the same name, so nested parse calls are not counted twice.
TIME_METRICS = {
    "decomp.split_s": ("decomp.split", "incl"),
    "decomp.split.self_s": ("decomp.split", "self"),
    "linalg.rref_s": ("linalg.rref", "incl"),
    "linalg.mat_mul_s": ("linalg.mat_mul", "incl"),
    "cedga.complex_s": ("cedga.complex", "incl"),
    "cedga.pd_type_s": ("cedga.pd_type", "incl"),
    "cedga.subdga_s": ("cedga.subdga", "incl"),
    "kuranishi.series_s": ("kuranishi.series", "incl"),
    "kuranishi.obstruction_s": ("kuranishi.obstruction", "incl"),
    "kuranishi.gauge_s": ("kuranishi.gauge", "incl"),
    "kuranishi.embedding_s": ("kuranishi.embedding", "incl"),
    "kuranishi.mc_residual_s": ("kuranishi.mc_residual", "incl"),
    "kuranishi.bracket11_s": ("kuranishi.bracket11", "incl"),
    "multipoly.eval_s": ("multipoly.eval", "incl"),
    "formats.germ_read_s": ("formats.germ_read", "self"),
    "formats.germ_write_s": ("formats.germ_write", "incl"),
    "formats.render_s": ("formats.render", "incl"),
    "formats.parse_s": ("formats.parse", "incl"),
    "nilshadow.nilshadow_s": ("nilshadow.nilshadow", "incl"),
    "jordan.jordan_chevalley_s": ("jordan.jordan_chevalley", "incl"),
    "liealg.classify_s": ("liealg.classify", "incl"),
    "liealg.grading_s": ("liealg.grading", "incl"),
    "cli.self_s": (JOB_SPAN, "self"),
}

CALL_METRICS = {
    "decomp.split.calls": "decomp.split",
    "linalg.rref.calls": "linalg.rref",
    "linalg.mat_mul.calls": "linalg.mat_mul",
    "kuranishi.bracket11.calls": "kuranishi.bracket11",
    "multipoly.eval.calls": "multipoly.eval",
}

COUNT_METRICS = {
    "decomp.dense_cells": "cells",
    "linalg.rref.cells": "cells",
    "cedga.monomials": "count",
    "cedga.d_nnz": "count",
    "kuranishi.phi_terms": "count",
    "kuranishi.last_nonzero_degree": "degree",
    "multipoly.obstruction_terms": "count",
    "formats.json_bytes": "B",
    "scalars.coef_bits_max": "bits",
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Spans of one traced pass, kept in memory until the run ends."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1, job id].
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.job = ""
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _wrap(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if counter is not None:
                with self.span(COUNT_SPAN):
                    counter(self.counts, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry of WRAPS for the duration of the block."""
        originals = []
        try:
            for module, path, name, counter in WRAPS:
                owner, attr = _resolve(module, path)
                fn = vars(owner)[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, counter))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def metrics(self) -> dict[str, float]:
        """Per-layer times, call counts and counters of this pass.

        Inclusive times leave out the ``trace.count`` spans nested inside.
        """
        n = len(self.spans)
        child_time = [0.0] * n
        count_time = [0.0] * n  # trace.count time in each span's subtree
        for i in reversed(range(n)):  # children come after their parent
            name, start, end, parent, _ = self.spans[i]
            if name == COUNT_SPAN:
                count_time[i] = end - start
            if parent >= 0:
                child_time[parent] += end - start
                count_time[parent] += count_time[i]
        incl: defaultdict[str, float] = defaultdict(float)
        self_time: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            duration = end - start
            calls[name] += 1
            self_time[name] += duration - child_time[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                incl[name] += duration - count_time[i]
        out: dict[str, float] = {}
        for metric, (name, kind) in TIME_METRICS.items():
            out[metric] = (incl if kind == "incl" else self_time)[name]
        for metric, name in CALL_METRICS.items():
            out[metric] = calls[name]
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric]
        return out

    def write(self, path) -> None:
        """Spans as tab-separated lines: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_s\tend_s\tparent\tjob\n")
            for name, start, end, parent, job in self.spans:
                handle.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")


def counts_agree(passes: list[dict[str, float]]) -> bool:
    """Counters are deterministic: every traced pass must give the same ones."""
    keys = [*CALL_METRICS, *COUNT_METRICS]
    return all(p[k] == passes[0][k] for p in passes for k in keys)
