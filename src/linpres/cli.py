"""Command line interface.

Commands:

- list        known forms, corollaries, census cases, field descriptors
- eval        evaluate a form at one vector
- minimal     run one minimality oracle at one vector
- verify      sample character-one family elements and check preservation
              and their predicted character
- bruteforce  run an exhaustive small-field census
- polarize    full polarization of a quartic form at four vectors

Each subparser carries its handler, and shared options come from parent
parsers.  eval, minimal and polarize read their form, field and JSON input
through _inputs and report through _report; verify and bruteforce through
_timed.  Reports are JSON on stdout with sorted keys and no timestamps, so
one (command, options, seed) configuration always produces identical bytes.
Wall-clock timings go to stderr.  Exit codes: 0 success, 1 a verification
or census found failures, 2 usage or domain errors: every error reaches
main, which prints "error: ...", except the out-of-scope e6.
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
from .preservers import COROLLARY_IDS, PreserverError, canonical_corollary, verify_corollary
from .sampling import SamplingError

OUT_OF_SCOPE = {"e6"}

# every other error class of the package is a ValueError
_USER_ERRORS = (BruteForceError, SamplingError, ValueError)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="linpres", description=__doc__.strip().splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    # the options several commands share, as parents
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="also write the report to this path")
    reads_form = argparse.ArgumentParser(add_help=False)
    reads_form.add_argument("--form", required=True, help="form descriptor, e.g. skew-pf:6")
    reads_form.add_argument("--field", required=True, help="Q or Fp:<p>")
    reads_form.add_argument("--in", dest="infile", help="path to the JSON input")
    reads_vector = argparse.ArgumentParser(add_help=False, parents=[reads_form])
    reads_vector.add_argument("--vector", help="inline JSON vector (array or object)")

    sub.add_parser("list", help="known forms, corollaries, and census cases").set_defaults(run=_cmd_list)
    sub.add_parser("eval", parents=[reads_vector, out], help="evaluate a form at one vector").set_defaults(run=_cmd_eval)

    pm = sub.add_parser("minimal", parents=[reads_vector, out], help="run one minimality oracle at one vector")
    pm.add_argument("--oracle", required=True, choices=["structure", "rrs", "radical"])
    pm.add_argument("--policy", choices=["exact", "randomized"], default="exact",
                    help="root-spread oracle only")
    pm.add_argument("--trials", type=int, default=64)
    pm.add_argument("--seed", type=int)
    pm.set_defaults(run=_cmd_minimal)

    pv = sub.add_parser("verify", parents=[out], help="check sampled character-one elements preserve the forms")
    pv.add_argument("--corollary", required=True, help="one of: %s" % ", ".join(COROLLARY_IDS))
    pv.add_argument("--field", required=True)
    pv.add_argument("--seed", type=int, required=True)
    pv.add_argument("--elements", type=int, default=30, help="total sample budget across the forms")
    pv.add_argument("--policy", choices=["auto", "symbolic", "schwartz-zippel"], default="auto")
    pv.set_defaults(run=_cmd_verify)

    pb = sub.add_parser("bruteforce", parents=[out], help="run an exhaustive small-field census")
    pb.add_argument("--case", required=True, help="one of: %s" % ", ".join(sorted(CASES)))
    pb.set_defaults(run=_cmd_bruteforce)

    pp = sub.add_parser("polarize", parents=[reads_form, out], help="full polarization of a quartic at four vectors")
    pp.add_argument("--points", help="inline JSON array of four vectors")
    pp.set_defaults(run=_cmd_polarize)

    return ap


def _inputs(args, inline: str | None, quartic: bool = False):
    """(form, field, JSON input) of eval, minimal and polarize; the input
    comes from the inline option, the --in file or stdin, in that order.  A
    quartic-only command refuses another form before it reads any input.  A
    non-integer number keeps its decimal text, which the field reads
    exactly, as it reads the same entry written as a string."""
    form, field = parse_form(args.form), parse_field(args.field)
    if quartic and form.degree != 4:
        raise FormError("polarization here applies to quartic forms; %r has degree %d"
                        % (form.line, form.degree))
    if inline is None and args.infile is not None:
        with open(args.infile, "r", encoding="utf-8") as fh:
            inline = fh.read()
    return form, field, json.loads(sys.stdin.read() if inline is None else inline, parse_float=str)


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


def _report(args, form, field, **entries) -> int:
    """Emit the {command, form, field, **entries} report of eval, minimal
    or polarize."""
    _emit({"command": args.command, "form": form.descriptor(), "field": field.descriptor, **entries}, args.out)
    return 0


def _timed(args, run) -> int:
    """Emit the report run() returns, with its wall time on stderr; exit
    code 1 when the report is not ok."""
    start = time.monotonic()
    report = run()
    print("wall time: %.3fs" % (time.monotonic() - start), file=sys.stderr)
    _emit(report, args.out)
    return 0 if report["ok"] else 1


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
    form, field, data = _inputs(args, args.vector)
    return _report(args, form, field, value=field.format(form.evaluate(_vector_from_obj(data, form, field))))


def _cmd_minimal(args) -> int:
    form, field, data = _inputs(args, args.vector)
    v = _vector_from_obj(data, form, field)
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
    policy = {"policy": args.policy} if args.oracle == "rrs" else {}
    return _report(args, form, field, oracle=args.oracle, verdict=verdict.to_json_obj(), **policy)


def _cmd_verify(args) -> int:
    name = args.corollary.strip()
    if name.lower() in OUT_OF_SCOPE:
        print("out of scope: this family is not implemented", file=sys.stderr)
        return 2
    try:
        cid = canonical_corollary(name)
    except KeyError:
        raise PreserverError("unknown corollary %r; known: %s" % (name, ", ".join(COROLLARY_IDS))) from None
    field = parse_field(args.field)
    return _timed(args, lambda: verify_corollary(cid, field, seed=args.seed, elements=args.elements,
                                                 policy=args.policy))


def _cmd_bruteforce(args) -> int:
    if args.case not in CASES:
        raise BruteForceError("unknown case %r; known: %s" % (args.case, ", ".join(sorted(CASES))))
    return _timed(args, lambda: {**run_case(args.case).to_json_obj(), "command": "bruteforce"})


def _cmd_polarize(args) -> int:
    form, field, data = _inputs(args, args.points, quartic=True)
    if not isinstance(data, list) or len(data) != 4:
        raise SpaceError("expected a JSON array of exactly four vectors")
    pts = [_vector_from_obj(obj, form, field) for obj in data]
    return _report(args, form, field, value=field.format(polarize4(form, *pts)))


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except json.JSONDecodeError as exc:
        print("error: bad JSON input: %s" % exc, file=sys.stderr)
        return 2
    except (OSError, *_USER_ERRORS) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
