"""Apply one-line mutants to a copy of the package and report which ones the
test suite kills.

Each mutant replaces one exact snippet of one source file.  The mutants run
one at a time: the repository's src/, tests/ and pyproject.toml are copied to
a fresh directory, the snippet is replaced in the copy, and

    python -m pytest -x -q tests

runs there with the copy's src/ first on PYTHONPATH, under a wall-clock
timeout.  The same run on an unmutated copy comes first: a failure counts as
a kill only once the unmutated suite is known to pass in a copy.  A mutant is
killed when its run fails (the first failing test is printed), survives when
it passes, and times out when it does not finish.  The repository itself is
never edited.  This is a check on the test suite, not part of it.

    python tools/mutants.py                  # every mutant
    python tools/mutants.py --only M1,M12    # a subset, by id
    python tools/mutants.py --timeout 120

Exit code 0 when every mutant was killed, 1 when one survived or timed out,
2 when a mutant is stale (its snippet does not occur exactly once), 3 when
the unmutated copy does not pass (no mutant is run).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (id, file under src/linpres, snippet, replacement, what the mutant breaks)
MUTANTS = [
    (
        "M1",
        "forms.py",
        "if modulus is not None and modulus <= d:",
        "if modulus is not None and modulus < d:",
        "simplex_lattice accepts characteristic equal to the degree",
    ),
    (
        "M2",
        "linalg.py",
        "return tuple([tuple([x % p for x in r]) for r in rows]), 1",
        "return tuple([tuple(r) for r in rows]), 1",
        "canonical leaves integer forms over F_p unreduced (bx_int_gram hands int_rank entries outside [0, p))",
    ),
    (
        "M7",
        "minimality.py",
        "target.gram(field)  # S must be invertible over the field",
        "pass",
        "the mat2n structure rule skips its S-invertibility check",
    ),
    (
        "M9",
        "preservers.py",
        "if degree >= size:",
        "if degree > size:",
        "sz_trial_count accepts a sample set no larger than the degree",
    ),
    (
        "M10",
        "forms.py",
        "LATTICE_POINT_LIMIT = 10**5",
        "LATTICE_POINT_LIMIT = 10**6",
        "the lattice point bound is ten times looser",
    ),
    (
        "M12",
        "preservers.py",
        "if values == refs:",
        "if values[:-1] == refs[:-1]:",
        "the symbolic policy skips the last lattice point",
    ),
    (
        "cube-second-condition",
        "minimality.py",
        "checks = (3 * a0 * a2 - a1 * a1, 27 * a0 * a0 * a3 - a1 * a1 * a1)",
        "checks = (3 * a0 * a2 - a1 * a1,)",
        "the cube test drops 27 a0^2 a3 = a1^3",
    ),
    (
        "scales-form-reduction",
        "preservers.py",
        "x = point([v % p for v in c] if p is not None else c)",
        "x = point(c)",
        "scales_form feeds unreduced draws to the packed matvec over F_p",
    ),
    (
        "sp6-contraction",
        "minimality.py",
        "if not target.contracts_to_zero(x, p):",
        "if False:",
        "the sp6 structure rule skips its kernel test",
    ),
    (
        "sp6-contraction-sign",
        "forms.py",
        "rows[i][a] += b[j][k]",
        "rows[i][a] -= b[j][k]",
        "one sign of the integer contraction matrix is flipped",
    ),
    (
        "wedge-step-sign",
        "multilinear.py",
        "rows = [[(-1 if neg else 1, (i, n + a))",
        "rows = [[(1, (i, n + a))",
        "the compiled wedge step drops the Laplace signs",
    ),
    (
        "exact-vector-gcd",
        "linalg.py",
        "g = gcd(den, *[x for r in rows for x in r])",
        "g = 1",
        "canonical keeps a non-canonical integer form over Q",
    ),
    (
        "canonical-sign",
        "linalg.py",
        "    if den < 0:\n        g = -g\n",
        "",
        "canonical keeps a negative denominator over Q (inv's last Bareiss pivot)",
    ),
    (
        "hyperdet-four",
        "forms.py",
        '"m*m - 4*(v0*v3 - v1*v2)*(v4*v7 - v5*v6)"',
        '"m*m - 2*(v0*v3 - v1*v2)*(v4*v7 - v5*v6)"',
        "the hyperdeterminant's slice discriminant takes 2 det A det B",
    ),
    (
        "pfaffian-sign",
        "forms.py",
        "((-1) ** (k + 1), coord[idx[0], idx[k]]",
        "((-1) ** k, coord[idx[0], idx[k]]",
        "the memoized Pfaffian expansion flips every term's sign",
    ),
    (
        "expansion-interpreted-sign",
        "linalg.py",
        "if s < 0:",
        "if False:",
        "the interpreted expansion above the compiled sizes ignores each term's sign",
    ),
    (
        "lattice-last-index",
        "forms.py",
        '"for %s in _cols[_i%d:]:"',
        '"for %s in _cols[_i%d + 1 :]:"',
        "the compiled lattice walk never repeats a point's last index",
    ),
    (
        "lattice-level",
        "forms.py",
        '"for _i%d, (%s) in enumerate(_cols[_i%d:], _i%d):"',
        '"for _i%d, (%s) in enumerate(_cols[_i%d + 1 :], _i%d + 1):"',
        "the compiled lattice walk's outer loops never repeat an index",
    ),
    (
        "lattice-inline-last-column",
        "forms.py",
        'lines += [pad + "v%d = %s" % v for v in enumerate(point)]',
        'lines += [pad + "v%d = %s" % v for v in enumerate(point[:-1] + [point[-1].split(" + ")[0]])]',
        "the inlined formula binds the last coordinate without the last index's column",
    ),
    (
        "lattice-inline-width",
        "forms.py",
        "if source is None or source[0] != m:",
        "if source is None:",
        "the walk inlines a formula whose dimension is not the column width",
    ),
    (
        "straight-line-names",
        "linalg.py",
        'if any(name.startswith("_") for name, _ in assignments):',
        "if False:",
        "a straight-line assignment may rebind a name of the lattice walk",
    ),
    (
        "lattice-outer-level",
        "forms.py",
        "for j in range(i, n)]",
        "for j in range(i + 1, n)]",
        "the levels built past the compiled depth never repeat an index",
    ),
    (
        "symbolic-denominator",
        "preservers.py",
        "refs = [b * r for r in refs]",
        "refs = refs",
        "the symbolic policy over Q drops the denominator of s^deg",
    ),
    (
        "symbolic-scale-fp",
        "preservers.py",
        "a, b = ratio(field, s**deg)",
        "a, b = ratio(field, s)",
        "both policies compare a f(R x) with b f(x) for s = a / b, not s^deg",
    ),
    (
        "congruence-sign",
        "preservers.py",
        '"v%d*v%d + v%d*v%d"',
        '"v%d*v%d - v%d*v%d"',
        "the symmetric pair step subtracts its cross term",
    ),
    (
        "pair-step-alt-sign",
        "preservers.py",
        '"v%d*v%d - v%d*v%d"',
        '"v%d*v%d + v%d*v%d"',
        "the alternating pair step adds its cross term, so congruences on alternating matrices lose their sign",
    ),
    (
        "gather-sign",
        "preservers.py",
        "[[s * row[src] for src, s in table] for row in rows]",
        "[[row[src] for src, s in table] for row in rows]",
        "the signed column gather drops its signs, so both stars permute without them",
    ),
    (
        "sp6-raw-embedding",
        "forms.py",
        "return self.kernel_basis(field).ints()[0]",
        "return None",
        "sp6 reads f at the 20 unit vectors, not at its 14 kernel columns",
    ),
    (
        "radical-sp6-kernel",
        "minimality.py",
        'if base == "sp6" and not form.in_kernel(v):',
        "if False:",
        "the radical oracle reads sp6 vectors outside the contraction kernel",
    ),
    (
        "lattice-level-bound",
        "forms.py",
        "if sums > LATTICE_POINT_LIMIT:",
        "if False:",
        "the lattice walk builds its levels past the point bound",
    ),
    (
        "invertible-shape",
        "preservers.py",
        "if (m.nrows, m.ncols) != (n, n):",
        "if False:",
        "family constructors accept a factor of the wrong size",
    ),
    (
        "invertible-det",
        "preservers.py",
        "if m.det() == m.ring.zero:",
        "if False:",
        "family constructors accept a singular factor",
    ),
    (
        "nonzero-scalar",
        "preservers.py",
        "if c == field.zero:",
        "if False:",
        "family constructors accept a zero r, c or mu",
    ),
    (
        "mixed-field-factor",
        "preservers.py",
        "if m.ring != field:",
        "if False:",
        "family constructors read a factor from another field as if over the element's",
    ),
    (
        "mixed-field-scalar",
        "preservers.py",
        'if type(c) is not type(field.zero) or getattr(c, "modulus", None) != field.modulus:',
        "if False:",
        "family constructors accept an r, c or mu from another field",
    ),
    (
        "sz-replay",
        "preservers.py",
        "rng.setstate(state)\n                for _ in range(t + 1):\n                    uniform_ints(rng, lo, hi, size)\n",
        "pass\n",
        "a Schwartz-Zippel failure in mid-batch leaves the rng after the batch's last draw, not the failing trial's",
    ),
    (
        "sz-replay-count",
        "preservers.py",
        "for _ in range(t + 1):",
        "for _ in range(t):",
        "a Schwartz-Zippel failure in mid-batch redraws one trial too few, so the stream ends before the failing trial's draw",
    ),
    (
        "batch-slot-bound",
        "preservers.py",
        "slot_code(len(rows[0]) * (p - 1) * top)",
        "slot_code(len(rows[0]) * (p - 1) * (top - 1))",
        "the packed product sizes its slots for inputs below top, so a slot at the bound carries",
    ),
    (
        "kernel-field-gate",
        "forms.py",
        "if p is None or p * p > 256 or",
        "if p is None or p * p > 289 or",
        "the byte-sliced kernel runs over F_17, whose products pass a byte slot",
    ),
    (
        "slot-map-mid-sum",
        "preservers.py",
        "if bound + r * (p - 1) > 255:",
        "if bound + r * (p - 1) > 4095:",
        "the byte-slot linear map never reduces mid-sum, so a dense row's running sum carries out of its byte",
    ),
    (
        "byte-batch-halves-swapped",
        "preservers.py",
        "out[:n].translate(byte_table(p, b)), out[n:].translate(byte_table(p, a))",
        "out[n:].translate(byte_table(p, b)), out[:n].translate(byte_table(p, a))",
        "the byte batch reads f(x) from the f(R x) half of the merged kernel call and f(R x) from the f(x) half",
    ),
    (
        "byte-batch-halves-shifted",
        "preservers.py",
        "[x << 8 * n | y for x, y in",
        "[x << 8 * (n - 1) | y for x, y in",
        "the byte batch shifts x one slot short, so its last slot lands on y's first",
    ),
    (
        "kernel-borrow-offset",
        "forms.py",
        "(lambda y: -(-y[1] // p) * p)",
        "(lambda y: y[1] // p * p)",
        "a kernel subtraction adds a multiple of p below the subtrahend's bound, so a slot borrows",
    ),
    (
        "kernel-first-failure",
        "preservers.py",
        "next(t for t in range(n) if fx[t] != fy[t])",
        "next(t for t in range(n - 1, -1, -1) if fx[t] != fy[t])",
        "the kernel's Schwartz-Zippel batch reports its last failing trial, not its first",
    ),
    (
        "word-digit-width",
        "sampling.py",
        "w = bound.bit_length() + 1",
        "w = bound.bit_length()",
        "the isometry word's signed digits are one bit short, so an entry at the bound carries into the next digit",
    ),
    (
        "draw-retry-in-place",
        "sampling.py",
        "out = [x + lo for x in [block >> s & mask for s in range(32 - k, 32 * n, 32)] if x < width]",
        "out = [x + lo if x < width else rng.randint(lo, hi) for x in [block >> s & mask for s in range(32 - k, 32 * n, 32)]]",
        "a batched draw replaces a rejected word by a retry drawn after the block, in the rejected word's place",
    ),
    (
        "gsp6-diffs-dropped",
        "preservers.py",
        "if not k or any(diffs):",
        "if not k:",
        "the sp6-push similitude check reads only k = (G^t b G)[0][1], not the other entries",
    ),
    (
        "exterior-last-level-unreduced",
        "multilinear.py",
        "step = _wedge_step(n, k, p is not None and k == d)",
        "step = _wedge_step(n, k, False)",
        "the last level of the Lambda^d walk is left unreduced, so a wedge push hands _packed entries past p",
    ),
    (
        "pair-step-unreduced",
        "preservers.py",
        "step = _pair_step(self.space, p is not None)",
        "step = _pair_step(self.space, False)",
        "the congruence pair step is left unreduced, so its rows hand _packed entries past p",
    ),
    (
        "plan-det-denominator",
        "linalg.py",
        "den**self.nrows, [int_det(",
        "(den**self.nrows if self.nrows > COMPILED_DET_MAX else 1), [int_det(",
        "a determinant read from the expansion plan is not divided by D^n over Q",
    ),
    (
        "verify-character",
        "preservers.py",
        "if not verdict.ok or chi != field.one:",
        "if not verdict.ok:",
        "verify counts no failure for an element whose predicted character is not one",
    ),
    (
        "verify-counterexample",
        "preservers.py",
        "if counterexample is None:",
        "if False:",
        "verify counts its failures but reports no counterexample",
    ),
    (
        "transvection-digit-steps",
        "sampling.py",
        "w = (3 ** (3 * n)).bit_length() + 1",
        "w = (3 ** n).bit_length() + 1",
        "the packed transvection rows' digits are sized for n steps, not 3n, so a large entry carries into the next digit",
    ),
    (
        "below-keeps-n",
        "fields.py",
        "while x >= n:",
        "while x > n:",
        "fields.below keeps a draw equal to n, so randrange(n)'s stream and range are left",
    ),
    (
        "byte-draw-one-refill",
        "sampling.py",
        "while (k := size - len(buf)) > 0:",
        "if (k := size - len(buf)) > 0:",
        "a byte draw refills its rejected bytes once, not until it holds size bytes, so a batch's draws shift",
    ),
    (
        "lattice-columns-unreduced",
        "forms.py",
        "map(getitem, mults, map(modulus.__rmod__, col))",
        "map(getitem, mults, col)",
        "the kernel's lattice columns look up the cached multiples by unreduced column entries, not their residues",
    ),
    (
        "sz-one-batch-always",
        "preservers.py",
        "predicted = p is not None and element.constraint_satisfied(form)",
        "predicted = p is not None",
        "every element with a kernel runs trials 1..T as one byte batch, so a violator pays for the whole batch",
    ),
    (
        "solve-power-k1-one",
        "sampling.py",
        "return target",
        "return field.one",
        "solve_power's k = 1 path returns one instead of the target",
    ),
]


def _copy_tree(work: Path):
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")


def _apply(work: Path, name: str, old: str, new: str):
    path = work / "src" / "linpres" / name
    text = path.read_text()
    if text.count(old) != 1:
        return False
    path.write_text(text.replace(old, new))
    return True


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return ""


def _pytest(work: Path, timeout: float):
    """(return code, stdout) of the suite in the copy; None on timeout."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
            cwd=work,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode, proc.stdout


def run(mutants, timeout: float) -> int:
    base = Path(tempfile.mkdtemp(prefix="mutants-"))
    status_code = 0
    try:
        work = base / "unmutated"
        _copy_tree(work)
        start = time.perf_counter()
        result = _pytest(work, timeout)
        elapsed = time.perf_counter() - start
        if result is None or result[0]:
            detail = "no result within %g s" % timeout if result is None else _first_failure(result[1])
            print("%-22s FAILED    %6.1f s  %s" % ("unmutated", elapsed, detail), flush=True)
            return 3
        print("%-22s passed    %6.1f s" % ("unmutated", elapsed), flush=True)
        shutil.rmtree(work, ignore_errors=True)
        for mid, name, old, new, what in mutants:
            work = base / mid
            _copy_tree(work)
            if not _apply(work, name, old, new):
                print("%-22s STALE     snippet not found exactly once in %s" % (mid, name))
                status_code = 2
                continue
            start = time.perf_counter()
            result = _pytest(work, timeout)
            if result is None:
                status, detail = "TIMEOUT", "no result within %g s" % timeout
            elif result[0]:
                status, detail = "killed", _first_failure(result[1])
            else:
                status, detail = "SURVIVED", what
            elapsed = time.perf_counter() - start
            print("%-22s %-9s %6.1f s  %s" % (mid, status, elapsed, detail), flush=True)
            if status != "killed" and status_code == 0:
                status_code = 1
            shutil.rmtree(work, ignore_errors=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return status_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", help="comma-separated mutant ids")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per test run (default 300)")
    args = parser.parse_args(argv)
    if args.timeout <= 0:
        parser.error("--timeout must be positive")
    mutants = MUTANTS
    if args.only:
        wanted = args.only.split(",")
        unknown = sorted(set(wanted) - {m[0] for m in MUTANTS})
        if unknown:
            parser.error("unknown mutant ids: %s" % ", ".join(unknown))
        mutants = [m for m in MUTANTS if m[0] in wanted]
    return run(mutants, args.timeout)


if __name__ == "__main__":
    sys.exit(main())
