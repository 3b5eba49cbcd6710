"""Per-layer tracing of the ``galois_trees`` package, from outside it.

Nothing here runs unless a traced run calls ``Tracer.install``.  That
replaces each traced function, in every ``galois_trees`` module that holds a
reference to it, by a wrapper that records a span (name, start, end, parent,
input index); the arithmetic kernels get a call count and summed time
instead of one span per call; the CLI commands get a span around their
callback.  ``uninstall`` puts every original back.

Self time of a span is its duration minus the durations of its direct
child spans; kernels are not spans, so their time stays in the self time of
the span that called them.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from math import comb
from time import perf_counter


def _count_cover(tracer, args, cover):
    tracer.counters["covers.cover_vertices_built"] += len(cover.total.vertices)


def _count_tree_poly(tracer, args, poly):
    tracer.counters["jacobians.trees_enumerated"] += poly.value_at_ones()
    tracer.counters["jacobians.tree_poly_terms"] += len(poly.terms)


def _count_bases(tracer, args, matroid):
    tracer.counters["matroids.subsets_tried"] += comb(len(matroid.spec.base.edges), matroid.rank)
    tracer.counters["matroids.bases_found"] += len(matroid.bases)


def _count_rhs(tracer, args, result):
    tracer.counters["verify.rhs_terms"] += len(result[3].terms)


def _count_smith(tracer, args, result):
    tracer.counters["algebra.smith_dim"] += len(args[0])


def _count_det(tracer, args, result):
    tracer.counters["algebra.det_dim"] += len(args[0])


# (defining module, function, span name, counter hook)
SPAN_TARGETS = (
    ("galois_trees.specfile", "parse_spec", "specfile.parse", None),
    ("galois_trees.covers", "validate_spec", "covers.validate_spec", None),
    ("galois_trees.covers", "build_cover", "covers.build_cover", _count_cover),
    ("galois_trees.groups", "characters", "groups.characters", None),
    ("galois_trees.graphs", "degree_sequence", "graphs.degree_sequence", None),
    ("galois_trees.jacobians", "labeled_jacobian_polynomial", "jacobians.tree_poly",
     _count_tree_poly),
    ("galois_trees.jacobians", "jacobian_group", "jacobians.jacobian_group", None),
    ("galois_trees.matroids", "bases", "matroids.bases", _count_bases),
    ("galois_trees.verify", "assemble_rhs", "verify.assemble_rhs", _count_rhs),
    ("galois_trees.verify", "verify_main_theorem", "verify.verify_main_theorem", None),
    ("galois_trees.zeta", "metric_zeta_reciprocal", "zeta.metric_zeta", None),
    ("galois_trees.zeta", "metric_l_reciprocal", "zeta.metric_l", None),
    ("galois_trees.zeta", "ihara_zeta_reciprocal", "zeta.three_term", None),
    ("galois_trees.zeta", "artin_l_reciprocal_three_term", "zeta.three_term", None),
    ("galois_trees.zeta", "twisted_laplacian_det", "zeta.twisted_laplacian_det", None),
    ("galois_trees.algebra.intmat", "det_over_ring", "algebra.det_over_ring", _count_det),
    ("galois_trees.algebra.intmat", "smith_normal_form", "algebra.smith_normal_form", _count_smith),
)

# (defining module, class, method, kernel name); aliases such as __rmul__ follow
KERNEL_TARGETS = (
    ("galois_trees.algebra.cyclotomic", "CycInt", "__mul__", "algebra.cycint_mul"),
    ("galois_trees.algebra.multipoly", "MultiPoly", "__mul__", "algebra.multipoly_mul"),
    ("galois_trees.algebra.multipoly", "MultiPoly", "exact_divide",
     "algebra.multipoly_exact_divide"),
    ("galois_trees.algebra.unipoly", "UniPoly", "__mul__", "algebra.unipoly_mul"),
)

# (metric, unit, better); the order is the order of BENCHMARK.json
PER_LAYER = (
    ("jacobians.tree_poly_s", "s", "lower"),
    ("jacobians.tree_poly_calls", "count", "lower"),
    ("jacobians.trees_enumerated", "count", "lower"),
    ("jacobians.tree_poly_terms", "count", "lower"),
    ("jacobians.jacobian_group_s", "s", "lower"),
    ("algebra.multipoly_exact_divide_s", "s", "lower"),
    ("algebra.multipoly_exact_divide_calls", "count", "lower"),
    ("algebra.multipoly_mul_s", "s", "lower"),
    ("algebra.multipoly_mul_calls", "count", "lower"),
    ("algebra.cycint_mul_s", "s", "lower"),
    ("algebra.cycint_mul_calls", "count", "lower"),
    ("algebra.unipoly_mul_calls", "count", "lower"),
    ("algebra.smith_normal_form_s", "s", "lower"),
    ("algebra.smith_dim", "count", "lower"),
    ("algebra.det_over_ring_s", "s", "lower"),
    ("algebra.det_over_ring_calls", "count", "lower"),
    ("algebra.det_dim", "count", "lower"),
    ("verify.assemble_rhs_s", "s", "lower"),
    ("verify.assemble_rhs.self_s", "s", "lower"),
    ("verify.rhs_terms", "count", "lower"),
    ("matroids.bases_s", "s", "lower"),
    ("matroids.bases_calls", "count", "lower"),
    ("matroids.subsets_tried", "count", "lower"),
    ("matroids.bases_found", "count", "lower"),
    ("matroids.basis_yield", "ratio", "higher"),
    ("covers.build_cover_s", "s", "lower"),
    ("covers.build_cover_calls", "count", "lower"),
    ("covers.validate_spec_s", "s", "lower"),
    ("covers.validate_spec_calls", "count", "lower"),
    ("covers.cover_vertices_built", "count", "lower"),
    ("groups.characters_s", "s", "lower"),
    ("groups.characters_calls", "count", "lower"),
    ("zeta.metric_zeta_s", "s", "lower"),
    ("zeta.metric_l_s", "s", "lower"),
    ("zeta.three_term_s", "s", "lower"),
    ("zeta.twisted_laplacian_det_s", "s", "lower"),
    ("graphs.degree_sequence_s", "s", "lower"),
    ("specfile.parse_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "galois_trees" or name.startswith("galois_trees."))]


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []
        self.kernels: dict[str, list] = {}  # name -> [calls, seconds], kept by the wrappers
        self.reset()

    def reset(self):
        self.spans: list[list] = []  # [name, start, end, parent index, input index]
        self.counters: dict[str, int] = defaultdict(int)
        self.request = None
        self._stack: list[int] = []
        for cell in self.kernels.values():
            cell[:] = [0, 0.0]

    # -- installation ----------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for modname, attr, span_name, hook in SPAN_TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._span_wrapper(span_name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
        for modname, clsname, method, kernel in KERNEL_TARGETS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[method]
            wrapper = self._kernel_wrapper(kernel, original)
            for key, value in list(cls.__dict__.items()):
                if value is original:
                    self._rebind(cls, key, wrapper)
        cli = sys.modules["galois_trees.cli"]
        for name, command in cli.main.commands.items():
            wrapper = self._span_wrapper(f"cli.{name}", command.callback, None)
            self._rebind(command, "callback", wrapper)

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def _rebind(self, owner, key, wrapper):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _span_wrapper(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, perf_counter(), None, parent, self.request]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _kernel_wrapper(self, name, fn):
        cell = self.kernels.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += perf_counter() - start

        return counted

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans, kernels and counters recorded so far."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_time: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            self_time[name.split(".")[0] if name.startswith("cli.") else name] += (
                end - start - child_time[i]
            )
        kernel = {name: tuple(cell) for name, cell in self.kernels.items()}
        tried = self.counters["matroids.subsets_tried"]
        out = {
            "jacobians.tree_poly_s": total["jacobians.tree_poly"],
            "jacobians.tree_poly_calls": calls["jacobians.tree_poly"],
            "jacobians.trees_enumerated": self.counters["jacobians.trees_enumerated"],
            "jacobians.tree_poly_terms": self.counters["jacobians.tree_poly_terms"],
            "jacobians.jacobian_group_s": total["jacobians.jacobian_group"],
            "algebra.smith_normal_form_s": total["algebra.smith_normal_form"],
            "algebra.smith_dim": self.counters["algebra.smith_dim"],
            "algebra.det_over_ring_s": total["algebra.det_over_ring"],
            "algebra.det_over_ring_calls": calls["algebra.det_over_ring"],
            "algebra.det_dim": self.counters["algebra.det_dim"],
            "verify.assemble_rhs_s": total["verify.assemble_rhs"],
            "verify.assemble_rhs.self_s": self_time["verify.assemble_rhs"],
            "verify.rhs_terms": self.counters["verify.rhs_terms"],
            "matroids.bases_s": total["matroids.bases"],
            "matroids.bases_calls": calls["matroids.bases"],
            "matroids.subsets_tried": tried,
            "matroids.bases_found": self.counters["matroids.bases_found"],
            "matroids.basis_yield": self.counters["matroids.bases_found"] / tried if tried else 0.0,
            "covers.build_cover_s": total["covers.build_cover"],
            "covers.build_cover_calls": calls["covers.build_cover"],
            "covers.validate_spec_s": total["covers.validate_spec"],
            "covers.validate_spec_calls": calls["covers.validate_spec"],
            "covers.cover_vertices_built": self.counters["covers.cover_vertices_built"],
            "groups.characters_s": total["groups.characters"],
            "groups.characters_calls": calls["groups.characters"],
            "zeta.metric_zeta_s": total["zeta.metric_zeta"],
            "zeta.metric_l_s": total["zeta.metric_l"],
            "zeta.three_term_s": total["zeta.three_term"],
            "zeta.twisted_laplacian_det_s": total["zeta.twisted_laplacian_det"],
            "graphs.degree_sequence_s": total["graphs.degree_sequence"],
            "specfile.parse_s": total["specfile.parse"],
            "cli.self_s": self_time["cli"],
        }
        for name in ("multipoly_exact_divide", "multipoly_mul", "cycint_mul"):
            n, seconds = kernel.get(f"algebra.{name}", (0, 0.0))
            out[f"algebra.{name}_s"] = seconds
            out[f"algebra.{name}_calls"] = n
        out["algebra.unipoly_mul_calls"] = kernel.get("algebra.unipoly_mul", (0, 0.0))[0]
        return out

    def span_records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "input": request}
            for name, start, end, parent, request in self.spans
        ]
