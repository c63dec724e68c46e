"""Command line interface.

Commands:

- list        known forms, corollaries, census cases, field descriptors
- eval        evaluate a form at one vector
- minimal     run one minimality oracle at one vector
- verify      sample character-one family elements and check preservation
- bruteforce  run an exhaustive small-field census
- polarize    full polarization of a quartic form at four vectors

Reports are JSON on stdout with sorted keys and no timestamps, so one
(command, options, seed) configuration always produces identical bytes.
Wall-clock timings go to stderr.  Exit codes: 0 success, 1 a verification
or census found failures, 2 usage or domain errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .bruteforce import BruteForceError, CASES, run_case
from .fields import parse_field
from .forms import FormError, form_descriptors, parse_form
from .minimality import MinimalityError, minimal_by_radical, minimal_by_rank, minimal_by_rrs
from .multilinear import RepVector, SpaceError, polarize4
from .preservers import COROLLARY_IDS, canonical_corollary, verify_corollary
from .sampling import SamplingError

OUT_OF_SCOPE = {"e6"}

# every other error class of the package is a ValueError
_USER_ERRORS = (BruteForceError, SamplingError, ValueError)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="linpres", description=__doc__.strip().splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="known forms, corollaries, and census cases")

    pe = sub.add_parser("eval", help="evaluate a form at one vector")
    pe.add_argument("--form", required=True, help="form descriptor, e.g. skew-pf:6")
    pe.add_argument("--field", required=True, help="Q or Fp:<p>")
    pe.add_argument("--vector", help="inline JSON vector (array or object)")
    pe.add_argument("--in", dest="infile", help="path to a JSON vector")
    pe.add_argument("--out", help="also write the report to this path")

    pm = sub.add_parser("minimal", help="run one minimality oracle at one vector")
    pm.add_argument("--form", required=True)
    pm.add_argument("--field", required=True)
    pm.add_argument("--oracle", required=True, choices=["structure", "rrs", "radical"])
    pm.add_argument("--policy", choices=["exact", "randomized"], default="exact",
                    help="root-spread oracle only")
    pm.add_argument("--trials", type=int, default=64)
    pm.add_argument("--seed", type=int)
    pm.add_argument("--vector", help="inline JSON vector (array or object)")
    pm.add_argument("--in", dest="infile")
    pm.add_argument("--out")

    pv = sub.add_parser("verify", help="check sampled character-one elements preserve the forms")
    pv.add_argument("--corollary", required=True, help="one of: %s" % ", ".join(COROLLARY_IDS))
    pv.add_argument("--field", required=True)
    pv.add_argument("--seed", type=int, required=True)
    pv.add_argument("--elements", type=int, default=30, help="total sample budget across the forms")
    pv.add_argument("--policy", choices=["auto", "symbolic", "schwartz-zippel"], default="auto")
    pv.add_argument("--out")

    pb = sub.add_parser("bruteforce", help="run an exhaustive small-field census")
    pb.add_argument("--case", required=True, help="one of: %s" % ", ".join(sorted(CASES)))
    pb.add_argument("--out")

    pp = sub.add_parser("polarize", help="full polarization of a quartic at four vectors")
    pp.add_argument("--form", required=True)
    pp.add_argument("--field", required=True)
    pp.add_argument("--points", help="inline JSON array of four vectors")
    pp.add_argument("--in", dest="infile")
    pp.add_argument("--out")

    return ap


def _load_json_input(inline: str | None, infile: str | None):
    """The JSON input, from the option, the file or stdin.  A non-integer
    number keeps its decimal text, which the field reads exactly, as it
    reads the same entry written as a string."""
    if inline is None and infile is not None:
        with open(infile, "r", encoding="utf-8") as fh:
            inline = fh.read()
    return json.loads(sys.stdin.read() if inline is None else inline, parse_float=str)


def _vector_from_obj(obj, form, field) -> RepVector:
    if isinstance(obj, list):
        obj = {
            "space": form.space.kind,
            "params": form.space.params,
            "entries": [str(e) for e in obj],
        }
    v = RepVector.from_json_obj(obj, field)
    if v.space != form.space:
        raise SpaceError("vector lives on %r, the form on %r" % (v.space, form.space))
    return v


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_list(args) -> int:
    _emit(
        {
            "command": "list",
            "forms": form_descriptors(),
            "corollaries": COROLLARY_IDS,
            "cases": sorted(CASES),
            "fields": ["Q", "Fp:<p>"],
        },
        None,
    )
    return 0


def _cmd_eval(args) -> int:
    form = parse_form(args.form)
    field = parse_field(args.field)
    v = _vector_from_obj(_load_json_input(args.vector, args.infile), form, field)
    value = form.evaluate(v)
    _emit(
        {
            "command": "eval",
            "form": form.descriptor(),
            "field": field.descriptor,
            "value": field.format(value),
        },
        args.out,
    )
    return 0


def _cmd_minimal(args) -> int:
    form = parse_form(args.form)
    field = parse_field(args.field)
    v = _vector_from_obj(_load_json_input(args.vector, args.infile), form, field)
    if args.oracle == "structure":
        verdict = minimal_by_rank(form, v)
    elif args.oracle == "radical":
        verdict = minimal_by_radical(form, v)
    else:
        rng = None
        if args.policy == "randomized":
            if args.seed is None:
                raise MinimalityError("randomized sampling needs --seed")
            rng = random.Random(args.seed)
        verdict = minimal_by_rrs(form, v, policy=args.policy, rng=rng, trials=args.trials)
    report = {
        "command": "minimal",
        "form": form.descriptor(),
        "field": field.descriptor,
        "oracle": args.oracle,
        "verdict": verdict.to_json_obj(),
    }
    if args.oracle == "rrs":
        report["policy"] = args.policy
    _emit(report, args.out)
    return 0


def _cmd_verify(args) -> int:
    name = args.corollary.strip()
    if name.lower() in OUT_OF_SCOPE:
        print("out of scope: this family is not implemented", file=sys.stderr)
        return 2
    try:
        cid = canonical_corollary(name)
    except KeyError:
        print(
            "error: unknown corollary %r; known: %s" % (name, ", ".join(COROLLARY_IDS)),
            file=sys.stderr,
        )
        return 2
    field = parse_field(args.field)
    start = time.monotonic()
    report = verify_corollary(cid, field, seed=args.seed, elements=args.elements, policy=args.policy)
    print("wall time: %.3fs" % (time.monotonic() - start), file=sys.stderr)
    _emit(report, args.out)
    return 0 if report["ok"] else 1


def _cmd_bruteforce(args) -> int:
    if args.case not in CASES:
        print(
            "error: unknown case %r; known: %s" % (args.case, ", ".join(sorted(CASES))),
            file=sys.stderr,
        )
        return 2
    start = time.monotonic()
    report = run_case(args.case)
    print("wall time: %.3fs" % (time.monotonic() - start), file=sys.stderr)
    obj = report.to_json_obj()
    obj["command"] = "bruteforce"
    _emit(obj, args.out)
    return 0 if report.ok else 1


def _cmd_polarize(args) -> int:
    form = parse_form(args.form)
    field = parse_field(args.field)
    if form.degree != 4:
        raise FormError("polarization here applies to quartic forms; %r has degree %d"
                        % (form.line, form.degree))
    data = _load_json_input(args.points, args.infile)
    if not isinstance(data, list) or len(data) != 4:
        raise SpaceError("expected a JSON array of exactly four vectors")
    pts = [_vector_from_obj(obj, form, field) for obj in data]
    value = polarize4(form, *pts)
    _emit(
        {
            "command": "polarize",
            "form": form.descriptor(),
            "field": field.descriptor,
            "value": field.format(value),
        },
        args.out,
    )
    return 0


_DISPATCH = {
    "list": _cmd_list,
    "eval": _cmd_eval,
    "minimal": _cmd_minimal,
    "verify": _cmd_verify,
    "bruteforce": _cmd_bruteforce,
    "polarize": _cmd_polarize,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except json.JSONDecodeError as exc:
        print("error: bad JSON input: %s" % exc, file=sys.stderr)
        return 2
    except (OSError, *_USER_ERRORS) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
