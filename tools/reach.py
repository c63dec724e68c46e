"""List the production functions that no command and no benchmark workload
reaches.

A fresh interpreter runs, in-process and under sys.setprofile:

- `linpres verify` for every corollary, `e6` and an unknown name, over Q,
  F_5, F_7 and F_10007, under each policy (seed 1, 6 elements);
- `linpres bruteforce` for every case, and `linpres list`;
- `linpres eval`, `minimal` (every oracle, and the root-spread oracle's
  randomized policy) and `polarize`, on the corollaries' forms plus forms
  past every compiled size, over Q, F_7 and F_10007, at a generic, a
  minimal and a zero vector;
- one round of each workload of `perfbench/workloads.py`, whose elements and
  verdicts go through its `Digest` as `perfbench/run.py` sends them.

The inputs are built in this process first, so that nothing they warm
hides a call from the trace.  A production function is a module-level
function or a method in `src/linpres`, except `polynomials.py`, which only
the tests and the benchmark's tracer load.  Each unreached one is printed,
with its reason where it is excluded (EXCLUDED, or a PROTOCOL dunder).  A
trace is only as complete as its inputs: a function listed here may still
be reached by an input not tried.

    python tools/reach.py

Exit code 0 when every unreached function is excluded and every EXCLUDED
name is a production function, 1 otherwise.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "linpres"

_ERROR_PATH = "error path: verify reports an element only on a counterexample"
_ABSTRACT = "abstract base"
_FIELD = "a field element's own arithmetic"
_PERFBENCH = "perfbench's tracer spans it"
_METHOD = "a method the tests call; moving it would edit test call sites"

# qualified name -> why it may stay unreached
EXCLUDED = {
    "preservers.PreserverElement.params_json": _ERROR_PATH,
    "preservers.PreserverElement.to_json_obj": _ERROR_PATH,
    "preservers._param_json": _ERROR_PATH,
    "preservers.PreserverElement._build_action": _ABSTRACT,
    "preservers.PreserverElement.char_params": _ABSTRACT,
    "forms.InvariantForm.scaling_factor": _ABSTRACT,
    "fields.Residue.__add__": _FIELD,
    "fields.Residue.__sub__": _FIELD,
    "fields.Residue.__bool__": _FIELD,
    "fields.PrimeField.inv": _FIELD,
    "fields.RationalField.inv": _FIELD,
    "fields.PrimeField.elements": _FIELD,
    "linalg.Matrix.__matmul__": _PERFBENCH,
    "linalg.Matrix.det": _PERFBENCH,
    "linalg.Matrix.rank": _PERFBENCH,
    "multilinear.lambda_power_matrix": _PERFBENCH,
    "multilinear.wedge_of_vectors": _PERFBENCH,
    "minimality.minimal_by_rank": _PERFBENCH,
    "preservers.PreservationVerdict.to_json_obj": _PERFBENCH,
    "linalg.Matrix.identity": _METHOD,
    "linalg.Matrix.from_ints": _METHOD,
    "linalg.Matrix.rows": _METHOD,
    "linalg.Matrix.entry": _METHOD,
    "linalg.Matrix.__add__": _METHOD,
    "linalg.Matrix.__neg__": _METHOD,
    "linalg.Matrix._check_shape": _METHOD,
    "linalg.Matrix.scale": _METHOD,
    "linalg.Matrix.apply": _METHOD,
    "multilinear.RepVector.zero": _METHOD,
    "multilinear.RepVector.basis": _METHOD,
    "multilinear.RepVector._check_mate": _METHOD,
    "multilinear.RepVector.__add__": _METHOD,
    "multilinear.RepVector.__sub__": _METHOD,
    "multilinear.RepVector.__neg__": _METHOD,
    "multilinear.RepVector.scale": _METHOD,
    "multilinear.RepVector.to_matrix": _METHOD,
    "multilinear.RepVector.to_json_obj": _METHOD,
    "multilinear.RepVector.to_json": _METHOD,
    "forms.InvariantForm.eval_entries": _METHOD,
    "preservers.PreserverElement.apply": _METHOD,
    "bruteforce.CensusReport.to_json": _METHOD,
}
# the frozen-value protocol, on every class
PROTOCOL = {"__setattr__", "__eq__", "__hash__", "__repr__"}

# forms past every compiled determinant and Pfaffian size, and more quadrics
EXTRA_FORMS = ["quadric:3", "quadric:4", "quadric:5", "quadric:6", "skew-pf:10", "skew-pf:12",
               "square-det:7", "symm-det:7", "mat2n:7"]
FIELDS = ["Q", "Fp:7", "Fp:10007"]


def production_functions():
    """{(file, first line of the code object): qualified name} for every
    module-level function and method under src/linpres but polynomials.py;
    a decorated function's code starts at its first decorator."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "polynomials.py":
            continue
        module = path.stem
        tree = ast.parse(path.read_text())
        for node in tree.body:
            defs = [(module, node)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                defs = [("%s.%s" % (module, node.name), n) for n in node.body if isinstance(n, ast.FunctionDef)]
            for owner, fn in defs:
                line = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                out[str(path), line] = "%s.%s" % (owner, fn.name)
    return out


def command_runs():
    """The argv of every traced `linpres` run."""
    sys.path.insert(0, str(ROOT / "src"))
    from linpres.fields import parse_field
    from linpres.forms import parse_form
    from linpres.minimality import sample_minimal
    from linpres.multilinear import RepVector
    from linpres.preservers import COROLLARY_IDS, corollary_forms

    runs = [["list"]] + [["bruteforce", "--case", case] for case in ("cubic-census-f5", "cubic-oracles-f5",
                                                                       "rk1fix-symm2-f3")]
    for cid in COROLLARY_IDS + ["e6", "no-such-corollary"]:
        for field in ("Q", "Fp:5", "Fp:7", "Fp:10007"):
            for policy in ("auto", "symbolic", "schwartz-zippel"):
                runs.append(["verify", "--corollary", cid, "--field", field, "--seed", "1", "--elements", "6",
                             "--policy", policy])
    lines = [f.line for cid in COROLLARY_IDS for f in corollary_forms(cid)]
    rng = random.Random(1)
    for line in dict.fromkeys(lines + EXTRA_FORMS):
        form = parse_form(line)
        for desc in FIELDS:
            field = parse_field(desc)
            generic = RepVector(form.space, field, [field.of(rng.randint(-9, 9)) for _ in range(form.space.dim)])
            zero = RepVector(form.space, field, [field.zero] * form.space.dim)
            for vector in (v.to_json_obj() for v in (generic, sample_minimal(form, field, rng), zero)):
                common = ["--form", line, "--field", desc]
                text = json.dumps(vector)
                runs.append(["eval", *common, "--vector", text])
                for oracle in (["structure"], ["radical"], ["rrs"], ["rrs", "--policy", "randomized", "--seed", "1"]):
                    runs.append(["minimal", *common, "--vector", text, "--oracle", *oracle])
                runs.append(["polarize", *common, "--points", json.dumps([vector] * 4)])
    return runs


def trace(runs):
    """Run each argv through cli.main and one round of each perfbench
    workload under sys.setprofile; [(file, first line)] of every code
    object called."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from linpres import cli
        import workloads

        codes = {}
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse refusals
                    code = exc.code
            codes[code] = codes.get(code, 0) + 1
        failed = []
        for name in workloads.WORKLOADS:
            workload = workloads.build(name)
            inputs, verdicts = workloads.Digest(), workloads.Digest()
            for k in range(workload.round_len):
                try:
                    elements, results = workload.run_op(1, k)
                except Exception as exc:  # perfbench counts a failed op and goes on
                    failed.append("%s op %d: %s: %s" % (name, k, type(exc).__name__, exc))
                    continue
                inputs.add(elements)
                verdicts.add(results)
    finally:
        sys.setprofile(None)
    print("%d runs, exit codes %s; %d failed workload ops" % (len(runs), dict(sorted(codes.items())), len(failed)),
          *failed, sep="\n", file=sys.stderr)
    return sorted({(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in seen})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--trace"]:  # the child: runs from stdin, reached code to stdout
        json.dump(trace(json.load(sys.stdin)), sys.stdout)
        return 0
    runs = command_runs()
    child = subprocess.run([sys.executable, __file__, "--trace"], input=json.dumps(runs), capture_output=True,
                           text=True, check=True)
    sys.stderr.write(child.stderr)
    reached = {tuple(key) for key in json.loads(child.stdout)}
    functions = production_functions()
    unreached = sorted(name for key, name in functions.items() if key not in reached)
    print("%d of %d production functions unreached" % (len(unreached), len(functions)))
    status = 0
    for name in unreached:
        reason = "the frozen-value protocol" if name.rsplit(".", 1)[1] in PROTOCOL else EXCLUDED.get(name)
        if reason is None:
            status = 1
        print("  %-48s %s" % (name, reason or "NOT EXCLUDED"))
    for name in sorted(set(EXCLUDED) - set(functions.values())):
        status = 1
        print("  %-48s STALE: excluded, but no such production function" % name)
    return status


if __name__ == "__main__":
    sys.exit(main())
