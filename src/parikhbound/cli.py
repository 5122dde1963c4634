"""Command-line interface.

Commands: bound, parikh, check-intersection, reach-pdn, oracle-verify.
Exit codes for the decision commands: 0 witness found / property verified,
1 proven empty / verification failed, 2 unknown within budget.
"""

from __future__ import annotations

import argparse
import json
import sys

from .boundedgen import (bounded_subset, parikh_equivalent_bounded,
                         verify_parikh_property)
from .errors import BudgetError, InputError, SoundnessError
from .grammar import enumerate_words, format_grammar, parse_grammar, trim
from .intersect import IntersectionInstance, intersect_modulo, semi_algorithm
from .pdn import family_instance, pdn_from_json, pdn_reach_bounded, reach
from .semilinear import parikh_image, sl_membership, sl_to_text
from .symbols import eb_from_text, eb_to_text, parikh_of_word


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_bound(args) -> int:
    g = parse_grammar(_read(args.grammar))
    trace: list | None = [] if args.emit_proof else None
    b = parikh_equivalent_bounded(g, trace=trace)
    text = eb_to_text(b)
    payload = {"bounded": [" ".join(w) for w in b.words]}
    if args.subset:
        subset = format_grammar(bounded_subset(g, b))
        text += "\n" + subset
        payload["subset_grammar"] = subset
    if trace is not None:
        proof = [{"level": str(level),
                  "bounded": {g.start: [" ".join(w) for w in bl.words]}}
                 for level, bl in trace]
        payload["levels"] = proof
        text += "\n" + "".join(f"# level {p['level']}: " + json.dumps(p["bounded"])
                                + "\n" for p in proof)
    ok = True
    if args.verify:
        ok = verify_parikh_property(trim(g), b, args.verify)
        payload["verified_to_length"] = args.verify
        payload["verified"] = ok
        text += f"# verified against enumeration to length {args.verify}: {ok}\n"
    _emit(args, payload, text)
    return 0 if ok else 1


def _image_covers_words(g, sl, length: int) -> bool:
    """True if sl holds the Parikh vectors of all words of g up to `length`."""
    sigma = trim(g).terminals
    return all(sl_membership(sl, parikh_of_word(w, sigma))
               for w in enumerate_words(g, length))


def cmd_parikh(args) -> int:
    g = parse_grammar(_read(args.grammar))
    image = parikh_image(g)
    sl = image.semilinear
    text = "alphabet: " + " ".join(trim(g).terminals.symbols) + "\n" + sl_to_text(sl)
    payload = {
        "alphabet": list(trim(g).terminals.symbols),
        "components": [{"constant": list(l.constant),
                        "periods": [list(p) for p in l.periods],
                        "witness": " ".join(w)}
                       for l, w in image.components],
    }
    ok = True
    if args.verify:
        ok = _image_covers_words(g, sl, args.verify)
        payload["verified_to_length"] = args.verify
        payload["verified"] = ok
        text += f"# verified against enumeration to length {args.verify}: {ok}\n"
    _emit(args, payload, text)
    return 0 if ok else 1


def cmd_check_intersection(args) -> int:
    grammars = tuple(parse_grammar(_read(p)) for p in args.grammars)
    if args.bounded:
        b = eb_from_text(_read(args.bounded))
        witness = intersect_modulo(list(grammars), b)
        if witness is None:
            _emit(args, {"status": "empty-in-bounded"}, "empty within bounded\n")
            return 1
        _emit(args, {"status": "nonempty", "witness": " ".join(witness)},
              "witness: " + (" ".join(witness) or "eps") + "\n")
        return 0
    result = semi_algorithm(IntersectionInstance(grammars),
                            max_rounds=args.max_rounds)
    payload = {"status": result.status, "rounds": result.rounds}
    if result.witness is not None:
        payload["witness"] = " ".join(result.witness)
        _emit(args, payload,
              "nonempty; witness: " + (" ".join(result.witness) or "eps") + "\n")
    else:
        _emit(args, payload, f"{result.status} after {result.rounds} round(s)\n")
    return result.exit_code


def cmd_reach_pdn(args) -> int:
    if args.family is not None:
        pdn, init, target = family_instance(args.family)
    else:
        pdn, init, target = pdn_from_json(_read(args.network))
    if args.oracle_depth:
        found = pdn_reach_bounded(pdn, init, target, args.oracle_depth)
        _emit(args, {"oracle_reachable": found},
              f"oracle (depth {args.oracle_depth}): "
              f"{'reachable' if found else 'not reached'}\n")
        return 0 if found else 2
    result = reach(pdn, init, target, max_rounds=args.max_rounds)
    payload = {"status": result.status, "rounds": result.rounds}
    if result.witness is not None:
        payload["schedule"] = " ".join(result.witness)
        _emit(args, payload, "reachable; schedule: "
              + (" ".join(result.witness) or "eps") + "\n")
    else:
        _emit(args, payload, f"{result.status} after {result.rounds} round(s)\n")
    return result.exit_code


def cmd_oracle_verify(args) -> int:
    g = parse_grammar(_read(args.grammar))
    b = parikh_equivalent_bounded(g)
    ok = verify_parikh_property(trim(g), b, args.length)
    image_ok = _image_covers_words(g, parikh_image(g).semilinear, args.length)
    payload = {"bounded_property": ok, "parikh_soundness": image_ok,
               "length": args.length}
    _emit(args, payload,
          f"bounded property to length {args.length}: {'pass' if ok else 'FAIL'}\n"
          f"parikh image covers enumeration: {'pass' if image_ok else 'FAIL'}\n")
    return 0 if ok and image_ok else 1


def _length(text: str) -> int:
    """An enumeration length, round count or search depth, rejected by the
    parser when negative, before any input is read."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, not {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parikhbound",
        description="Parikh-equivalent bounded underapproximations of "
                    "context-free languages")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="compute a Parikh-equivalent bounded language")
    p.add_argument("grammar")
    p.add_argument("--subset", action="store_true",
                   help="also print a grammar for L intersect B")
    p.add_argument("--emit-proof", action="store_true",
                   help="print the bounded language of the start variable "
                        "at each composition level; a level's v_Y stands for "
                        "Y one level down")
    p.add_argument("--verify", type=_length, default=0, metavar="N",
                   help="re-check the result by enumeration up to length N")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("parikh", help="compute the Parikh image of a grammar")
    p.add_argument("grammar")
    p.add_argument("--verify", type=_length, default=0, metavar="N")
    p.set_defaults(func=cmd_parikh)

    p = sub.add_parser("check-intersection",
                       help="semi-decide emptiness of a grammar intersection")
    p.add_argument("grammars", nargs="+")
    p.add_argument("--bounded", metavar="FILE",
                   help="decide only within this elementary bounded language")
    p.add_argument("--max-rounds", type=_length, default=5)
    p.set_defaults(func=cmd_check_intersection)

    p = sub.add_parser("reach-pdn", help="pushdown network reachability")
    p.add_argument("network", nargs="?")
    p.add_argument("--family", type=int, metavar="K",
                   help="use the built-in two-thread family instance")
    p.add_argument("--max-rounds", type=_length, default=5)
    p.add_argument("--oracle-depth", type=_length, default=0, metavar="D",
                   help="run the bounded breadth-first oracle instead")
    p.set_defaults(func=cmd_reach_pdn)

    p = sub.add_parser("oracle-verify",
                       help="re-derive the core guarantees by enumeration")
    p.add_argument("grammar")
    p.add_argument("--length", type=_length, default=8)
    p.set_defaults(func=cmd_oracle_verify)
    return parser


def main(argv=None) -> int:
    # regex trees and recursive constructions can get deep on generated inputs
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2, reported) or --help (0)
        return exc.code
    if getattr(args, "command", None) == "reach-pdn" \
            and not args.network and args.family is None:
        print("error: provide a network file or --family K", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 2
    except SoundnessError as exc:  # never expected; do not hide it
        print(f"internal soundness violation: {exc}", file=sys.stderr)
        raise


if __name__ == "__main__":
    sys.exit(main())
