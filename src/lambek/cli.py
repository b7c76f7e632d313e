"""Command line front end.

    lambek check   "a , = , b |- T" --grammar bool
    lambek prove   "b , OR , 1 , = , 1 |- (T/V)\\E" --grammar bool --tree
    lambek infer   "b OR 1 = 1" --grammar bool --atoms T,V,E --depth 1
    lambek enum    E --grammar bool --max-len 5
    lambek oracle  "V |- T" --grammar bool --max-len 5
    lambek ambig   --grammar bool --max-len 6
    lambek analyze --grammar bool --prefix "a =" --input "b OR 1 = 1" \\
                   --goal E --expect V

Grammar arguments name a file on disk, or one of the bundled grammars by
stem (bool, eng).  Exit status: 0 for an affirmative answer (proved, pass,
benign), 1 for a sound negative one, 2 for usage or input errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import TextIO

from .analyzer import AmbiguityError, Classification, InjectionContext, classify_input, infer_typings
from .earley import Witness, check_unambiguous, render_tree_text
from .grammar import (
    Grammar,
    GrammarError,
    enumerate_words,
    iter_words_sorted,
    load_grammar,
    render_word,
    word_from_text,
)
from .prover import Prover, SearchStatus, parse_axiom, proof_to_json, render_proof
from .semantics import Counterexample, SemBound, prove_with_prescreen, soundness_check
from .types import TypeSyntaxError, parse_sequent, render_type


def _load_grammar(spec: str, err: TextIO) -> Grammar:
    g, notes = load_grammar(spec)
    for note in notes:
        print(f"note: {note}", file=err)
    return g


def _emit(obj: dict, out: TextIO) -> None:
    print(json.dumps(obj, ensure_ascii=False), file=out)


def _cmd_check(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    g = _load_grammar(args.grammar, err)
    axioms = tuple(parse_axiom(a, g) for a in args.axiom)
    s = parse_sequent(args.sequent, g)
    res = prove_with_prescreen(g, s, SemBound(args.max_len), axioms)
    if args.json:
        _emit(
            {
                "status": res.status.value,
                "counterexample": (
                    render_word(res.counterexample) if res.counterexample is not None else None
                ),
                "proof": proof_to_json(res.proof) if res.proof and args.tree else None,
            },
            out,
        )
    elif res.status is SearchStatus.PROVED:
        print("Proved", file=out)
        if args.tree:
            print(render_proof(res.proof), file=out)
    elif res.status is SearchStatus.REFUTED_BY_ORACLE:
        print(f"RefutedByOracle: {render_word(res.counterexample)}", file=out)
    else:
        print("NotFoundWithinBounds", file=out)
    return 0 if res.proved else 1


def _cmd_prove(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    g = _load_grammar(args.grammar, err)
    axioms = tuple(parse_axiom(a, g) for a in args.axiom)
    s = parse_sequent(args.sequent, g)
    res = Prover(g, axioms).prove(s)
    if args.json:
        _emit(
            {
                "status": res.status.value,
                "proof": proof_to_json(res.proof) if res.proof else None,
            },
            out,
        )
    elif res.proved:
        print(render_proof(res.proof), file=out)
    else:
        print("NotFoundWithinBounds", file=out)
    return 0 if res.proved else 1


def _cmd_infer(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    g = _load_grammar(args.grammar, err)
    w = word_from_text(g, args.word)
    if args.atoms:
        atoms = tuple(g.symbol(name.strip()) for name in args.atoms.split(","))
    else:
        atoms = tuple(sorted(g.nonterminals, key=lambda s: s.name))
    typings = infer_typings(g, w, atoms, args.depth)
    if args.json:
        _emit(
            {
                "word": render_word(w),
                "depth": args.depth,
                "types": [render_type(t) for t, _ in typings],
            },
            out,
        )
    else:
        for t, _ in typings:
            print(render_type(t), file=out)
    return 0 if typings else 1


def _cmd_enum(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    g = _load_grammar(args.grammar, err)
    words = list(iter_words_sorted(enumerate_words(g, g.symbol(args.symbol), args.max_len)))
    if args.json:
        _emit(
            {"symbol": args.symbol, "max_len": args.max_len, "words": [render_word(w) for w in words]},
            out,
        )
    else:
        for w in words:
            print(render_word(w), file=out)
    return 0


def _cmd_oracle(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    g = _load_grammar(args.grammar, err)
    s = parse_sequent(args.sequent, g)
    verdict = soundness_check(g, s, SemBound(args.max_len), args.out_len)
    if isinstance(verdict, Counterexample):
        if args.json:
            _emit({"status": "Counterexample", "word": render_word(verdict.word)}, out)
        else:
            print(f"Counterexample: {render_word(verdict.word)}", file=out)
        return 1
    if args.json:
        _emit({"status": "Pass", "checked": verdict.checked}, out)
    else:
        print(f"Pass: {verdict.checked} words checked", file=out)
    return 0


def _cmd_ambig(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    g = _load_grammar(args.grammar, err)
    sym = g.symbol(args.symbol) if args.symbol else g.start
    outcome = check_unambiguous(g, sym, args.max_len)
    if isinstance(outcome, Witness):
        if args.json:
            _emit(
                {
                    "status": "Ambiguous",
                    "word": render_word(outcome.word),
                    "first": render_tree_text(outcome.first),
                    "second": render_tree_text(outcome.second),
                },
                out,
            )
        else:
            print(f"Ambiguous: {render_word(outcome.word)}", file=out)
            print(render_tree_text(outcome.first), file=out)
            print("--", file=out)
            print(render_tree_text(outcome.second), file=out)
        return 1
    if args.json:
        _emit({"status": "Pass", "max_len": args.max_len}, out)
    else:
        print(f"Pass: unambiguous up to length {args.max_len}", file=out)
    return 0


def _cmd_analyze(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    g = _load_grammar(args.grammar, err)
    ctx = InjectionContext(
        prefix=word_from_text(g, args.prefix),
        suffix=word_from_text(g, args.suffix),
        goal=g.symbol(args.goal),
        expected=g.symbol(args.expect),
    )
    w = word_from_text(g, args.input)
    report = classify_input(g, ctx, w)
    if args.json:
        _emit(report.to_json(g), out)
    else:
        print(report.classification.value, file=out)
        for c in report.captures:
            print(f"  capture {c.direction.value}: {render_type(c.type)}", file=out)
        print(f"  reshaping: {type(report.reshaping).__name__}", file=out)
    return 0 if report.classification is Classification.BENIGN else 1


def _build_parser() -> argparse.ArgumentParser:
    grammar = argparse.ArgumentParser(add_help=False)
    grammar.add_argument("--grammar", required=True, help="grammar file or bundled name")
    grammar.add_argument("--json", action="store_true", help="machine-readable output")

    axiom = argparse.ArgumentParser(add_help=False)
    axiom.add_argument("--axiom", action="append", default=[], metavar="'tok |- TYPE'")

    bound = argparse.ArgumentParser(add_help=False)
    bound.add_argument("--max-len", type=int, default=5)

    p = argparse.ArgumentParser(prog="lambek", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", parents=[grammar, axiom, bound], help="oracle then proof search")
    c.add_argument("sequent")
    c.add_argument("--tree", action="store_true", help="print the proof when found")
    c.set_defaults(fn=_cmd_check)

    c = sub.add_parser("prove", parents=[grammar, axiom], help="proof search, print the proof")
    c.add_argument("sequent")
    c.set_defaults(fn=_cmd_prove)

    c = sub.add_parser("infer", parents=[grammar], help="enumerate provable typings of a word")
    c.add_argument("word")
    c.add_argument("--atoms", default="", help="comma-separated atom names (default: all nonterminals)")
    c.add_argument("--depth", type=int, default=1)
    c.set_defaults(fn=_cmd_infer)

    c = sub.add_parser("enum", parents=[grammar, bound], help="list the words a symbol derives")
    c.add_argument("symbol")
    c.set_defaults(fn=_cmd_enum)

    c = sub.add_parser("oracle", parents=[grammar, bound], help="bounded soundness check of a sequent")
    c.add_argument("sequent")
    c.add_argument("--out-len", type=int, default=None, help="antecedent word length cap (default: --max-len)")
    c.set_defaults(fn=_cmd_oracle)

    c = sub.add_parser("ambig", parents=[grammar, bound], help="scan for ambiguous words")
    c.add_argument("--symbol", default="", help="start symbol by default")
    c.set_defaults(fn=_cmd_ambig)

    c = sub.add_parser("analyze", parents=[grammar], help="classify a hole-filling input")
    c.add_argument("--prefix", default="")
    c.add_argument("--suffix", default="")
    c.add_argument("--goal", required=True)
    c.add_argument("--expect", required=True)
    c.add_argument("--input", required=True)
    c.set_defaults(fn=_cmd_analyze)

    return p


def run(argv: list[str], out: TextIO = sys.stdout, err: TextIO = sys.stderr) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args, out, err)
    except (GrammarError, TypeSyntaxError, AmbiguityError, ValueError, OSError, RecursionError) as e:
        # a RecursionError is an input too deep to handle, not a negative answer
        print(f"error: {e}", file=err)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
