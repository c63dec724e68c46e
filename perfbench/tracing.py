"""Spans around the public functions of each linpres module, installed from
outside the library.

A span records (name, start, end, parent, op).  Spans live in memory while
the run lasts and are written out once at the end.  A span's self time is its
duration minus the time its child spans cover; a layer is the module prefix of
the span name, so summing self time by prefix says where an op's time went.

A call to a function whose span is already the innermost open one (for
example `Sp6Quartic.evaluate` calling the ambient `Wedge36.evaluate`) opens no
second span, so call counts count entries into a layer function once.
"""

from __future__ import annotations

import functools
import gzip
import sys
from time import perf_counter

LAYERS = ("sampling", "preservers", "forms", "polynomials", "linalg", "multilinear", "minimality")
FAMILIES = (
    "Congruence",
    "Sandwich",
    "TransposeSandwich",
    "CubicSubstitution",
    "WedgePush",
    "GSp6Push",
    "TriplePush",
    "OrthogonalPair",
)
BASE_LINES = ("symm-det", "skew-pf", "square-det", "cubic-disc", "wedge36", "sp6", "hyperdet", "mat2n")


class Tracer:
    """Records spans and counters while its patches are installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # recording

    def _span(self, fn, name, namer=None, after=None, when=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = namer(args) if namer is not None else name
            if (when is not None and not when(args)) or (stack and spans[stack[-1]][0] == label):
                return fn(*args, **kwargs)
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(rec, result)
            return result

        wrapper.__perfbench_span__ = True
        return wrapper

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    # installing

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, module, attr, wrapper):
        """Replace module.attr in every linpres module that imported it by name."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("linpres") and getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapper)

    def _methods(self, base, attr):
        """base and each of its subclasses that defines attr itself."""
        seen, todo = [], [base]
        while todo:
            cls = todo.pop()
            if attr in cls.__dict__:
                seen.append(cls)
            todo.extend(cls.__subclasses__())
        return seen

    def install(self):
        from linpres import forms, linalg, minimality, multilinear, polynomials, preservers, sampling

        span = self._span
        for mod, attr, name in (
            (sampling, "gsp6_element", "sampling.gsp6_element"),
            (sampling, "go_element", "sampling.go_element"),
            (multilinear, "lambda_power_matrix", "multilinear.lambda_power_matrix"),
            (multilinear, "wedge_of_vectors", "multilinear.wedge_of_vectors"),
            (minimality, "minimal_by_rank", "minimality.minimal_by_rank"),
            (preservers, "sample_group_element", "preservers.sample_group_element"),
            (preservers, "sample_free_element", "preservers.sample_free_element"),
            (preservers, "sample_violator", "preservers.sample_violator"),
            (preservers, "scales_form", "preservers.scales_form"),
            (preservers, "preserves_minimals", "preservers.preserves_minimals"),
        ):
            self._rebind(mod, attr, span(getattr(mod, attr), name))

        def solve_power_after(rec, result):
            if result is None:
                self.count("sampling.solve_power.none")

        self._rebind(sampling, "solve_power", span(sampling.solve_power, "sampling.solve_power", after=solve_power_after))

        def preserves_form_after(rec, verdict):
            if verdict.policy == "symbolic":
                rec[0] = "preservers.preserves_form.symbolic"
            else:
                rec[0] = "preservers.preserves_form.sz"
                self.count("preservers.preserves_form.sz.trials", verdict.trials)

        self._rebind(
            preservers,
            "preserves_form",
            span(preservers.preserves_form, "preservers.preserves_form", after=preserves_form_after),
        )

        def minimal_name(args):
            target = args[0]
            line = getattr(target, "line", None)
            return "minimality.sample_minimal." + (line.split(":")[0] if line else target.kind)

        self._rebind(minimality, "sample_minimal", span(minimality.sample_minimal, None, namer=minimal_name))

        base = preservers.PreserverElement
        self._set(
            base,
            "matrix_on_space",
            span(
                base.matrix_on_space,
                None,
                namer=lambda args: "preservers.matrix_on_space." + type(args[0]).__name__,
                when=lambda args: args[0]._matrix is None,
            ),
        )
        for attr, name in (("apply", "preservers.apply"), ("constraint_satisfied", "preservers.constraint_satisfied")):
            for cls in self._methods(base, attr):
                self._set(cls, attr, span(cls.__dict__[attr], name))

        for attr, name in (("evaluate", "forms.evaluate"), ("eval_entries", "forms.eval_entries")):
            for cls in self._methods(forms.InvariantForm, attr):
                self._set(cls, attr, span(cls.__dict__[attr], name))
        for cls in self._methods(forms.InvariantForm, "int_evaluator"):
            self._set(cls, "int_evaluator", self._wrap_int_evaluator(cls.__dict__["int_evaluator"]))

        poly_mul = span(polynomials.Poly.__mul__, "polynomials.mul")
        self._set(polynomials.Poly, "__mul__", poly_mul)
        self._set(polynomials.Poly, "__rmul__", poly_mul)
        for attr, name in (("det", "linalg.det"), ("rank", "linalg.rank"), ("__matmul__", "linalg.matmul")):
            self._set(linalg.Matrix, attr, span(linalg.Matrix.__dict__[attr], name))

    def _wrap_int_evaluator(self, method):
        """The integer evaluator is a closure; span the closure, not its factory."""

        @functools.wraps(method)
        def int_evaluator(form, field):
            fn = method(form, field)
            if getattr(fn, "__perfbench_span__", False):
                return fn
            return self._span(fn, "forms.int_eval")

        return int_evaluator

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # reporting

    def self_times(self):
        """{name: [calls, self seconds]} and the seconds covered by top-level spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        top = 0.0
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top += end - start
        agg: dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            entry = agg.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - child[i]
        return agg, top

    def write(self, path):
        """Spans as gzipped tab-separated lines; parent is the 0-based index of
        the parent span among the span lines, -1 for none."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                out.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (name, start, end, parent, op))
