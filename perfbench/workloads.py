"""The benchmark's workloads: what one op is, and the fixed cell mix of a round.

verify-f7  One op samples one scaling-character-one element over F_7
           (`sample_group_element`), checks `constraint_satisfied`, and runs
           `preserves_form(policy="auto")`.  A round gives every corollary 6
           elements split evenly over its forms, as `linpres verify` and
           acceptance criterion 1 do: 54 ops.  p = 7 needs 75 Schwartz-Zippel
           trials, so the forms' integer evaluators and the symbolic expansion
           in `polynomials` dominate.
verify-q   The same op and round over Q.  Three trials suffice there, so the
           Fraction-heavy samplers (`gsp6_element`, `go_element`),
           `matrix_on_space` (rational Lambda^3 misses the integer-minor path)
           and denominator clearing dominate.  A Q-only fix moves this
           workload and leaves verify-f7 flat.
free-law   One op takes one (field, cell) pair, round-robin over the 16 cells
           x {F_7, Q} (32 ops a round): 5 unconstrained elements through
           `scales_form` against `scaling_factor`, 1 `sample_violator` element
           rejected by Schwartz-Zippel within 32 trials with a counterexample,
           and `preserves_minimals` with 5 samples on the first free element,
           the 5:1:5 ratio of criteria 2, 8 and 10.  This is the generic
           field-object path (`evaluate`, `apply`, `Matrix.det`/`rank`,
           `sample_minimal`), not the integer fast path.

All three are closed loops with one caller in one process.  Left out on
purpose: `bruteforce`, whose censuses finish in 0.3-3.4 s against budgets of
10-60 s and which no open item targets, and the `cli` wrapper, a thin JSON
layer whose import cost `setup_s` already covers.

Every op draws from its own RNG, seeded from (workload, seed, op index), so op
k sees the same inputs however many numbers earlier ops drew.  Ops call only
the public functions of `linpres.preservers`, through the module, so that a
tracer that rebinds those names sees every call.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random


class OpFailure(AssertionError):
    """An op returned a wrong verdict or a wrong count."""


def check(cond, what):
    if not cond:
        raise OpFailure(what)


def op_rng(workload: str, seed: int, index: int) -> random.Random:
    # string seeds hash with sha512, so the stream is the same in every process
    return random.Random("%s:%d:%d" % (workload, seed, index))


def _verify_cells(preservers):
    """Each corollary gets the same budget of 6 elements per round, split
    evenly across its forms, as `linpres verify` and criterion 1 weight them."""
    cells = []
    for cid in preservers.COROLLARY_IDS:
        forms = preservers.corollary_forms(cid)
        for form in forms:
            cells.extend([(cid, form)] * (6 // len(forms)))
    return cells


def _verify_op(preservers, field, cid, form, rng):
    el = preservers.sample_group_element(cid, form, field, rng)
    check(el.constraint_satisfied(form), "sampled element misses the unit character")
    verdict = preservers.preserves_form(el, form, policy="auto", rng=rng)
    check(verdict.ok, "group element reported as not preserving the form")
    return [el], [verdict]


FREE_ELEMENTS = 5
MINIMAL_SAMPLES = 5
VIOLATOR_TRIALS = 32


def _free_law_op(preservers, field, cid, form, rng):
    """5 character-law checks, 1 violator rejection and 5 minimal-orbit
    samples: the 5:1:5 ratio of acceptance criteria 2, 8 and 10."""
    free = [preservers.sample_free_element(cid, form, field, rng) for _ in range(FREE_ELEMENTS)]
    for el in free:
        check(preservers.scales_form(el, form, rng) == el.scaling_factor(form), "scaling factor mismatch")
    bad = preservers.sample_violator(cid, form, field, rng)
    check(not bad.constraint_satisfied(form), "violator has the unit character")
    verdict = preservers.preserves_form(bad, form, policy="schwartz-zippel", rng=rng, trials=VIOLATOR_TRIALS)
    check(not verdict.ok, "violator accepted")
    check(verdict.counterexample is not None, "rejection without a counterexample")
    check(verdict.trials <= VIOLATOR_TRIALS, "rejection took more than %d trials" % VIOLATOR_TRIALS)
    ok, cex = preservers.preserves_minimals(free[0], form, rng, samples=MINIMAL_SAMPLES)
    check(ok, "minimal vector mapped off the minimal cone: %r" % (cex,))
    return free + [bad], [verdict]


class Workload:
    """A named, fixed round of cells; op k runs cell k mod len(cells)."""

    def __init__(self, name, cells, op):
        self.name = name
        self.cells = cells  # [(field, cid, form)]
        self._op = op

    @property
    def round_len(self):
        return len(self.cells)

    def run_op(self, seed, index, rng=None):
        """Run op `index`; returns (sampled elements, verdicts), or raises on
        a wrong result."""
        field, cid, form = self.cells[index % len(self.cells)]
        if rng is None:
            rng = op_rng(self.name, seed, index)
        return self._op(field, cid, form, rng)

    def warm_up(self, after_op=None):
        """One op per cell on a stream no timed op uses, to fill the per-form
        lazy caches every CLI run pays for."""
        seen = set()
        for k, (field, cid, form) in enumerate(self.cells):
            if (field, form) not in seen:
                seen.add((field, form))
                self.run_op(0, k, op_rng(self.name + ":warm-up", 0, k))
                if after_op is not None:
                    after_op()


def build(name: str) -> Workload:
    from linpres import preservers
    from linpres.fields import QQ, PrimeField

    f7 = PrimeField(7)
    if name in ("verify-f7", "verify-q"):
        field = f7 if name == "verify-f7" else QQ
        cells = [(field, cid, form) for cid, form in _verify_cells(preservers)]
        return Workload(name, cells, functools.partial(_verify_op, preservers))
    if name == "free-law":
        cells = [
            (field, cid, form)
            for cid in preservers.COROLLARY_IDS
            for form in preservers.corollary_forms(cid)
            for field in (f7, QQ)
        ]
        return Workload(name, cells, functools.partial(_free_law_op, preservers))
    raise KeyError(name)


WORKLOADS = ("verify-f7", "verify-q", "free-law")


class Digest:
    """sha256 over the `to_json_obj()` of a sequence of objects, in order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, objs):
        for obj in objs:
            self._h.update(json.dumps(obj.to_json_obj(), sort_keys=True).encode())
            self._h.update(b"\n")

    def hexdigest(self):
        return self._h.hexdigest()
