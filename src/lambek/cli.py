"""Command line front end.

    lambek check   "a , = , b |- T" --grammar bool
    lambek prove   "b , OR , 1 , = , 1 |- (T/V)\\E" --grammar bool
    lambek infer   "b OR 1 = 1" --grammar bool --atoms T,V,E --depth 1
    lambek enum    E --grammar bool --max-len 5
    lambek oracle  "V |- T" --grammar bool --max-len 5
    lambek ambig   --grammar bool --max-len 6
    lambek analyze --grammar bool --prefix "a =" --input "b OR 1 = 1" \\
                   --goal E --expect V

Grammar arguments name a file on disk, or one of the bundled grammars by
stem (bool, eng).  Exit status: 0 for an affirmative answer (proved, pass,
benign), 1 for a sound negative one, 2 for usage or input errors.

Each command is a function of the loaded grammar and the parsed arguments
that returns its answer: the exit status, the object --json prints, and
the text lines printed otherwise.  run alone loads the grammar and prints
the answer.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Iterable, Iterator, TextIO

from .analyzer import Classification, InjectionContext, classify_input, infer_typings
from .earley import Witness, check_unambiguous, render_tree_text
from .grammar import Grammar, enumerate_words, iter_words_sorted, load_grammar, render_word
from .grammar import word_from_text
from .prover import ProofTree, Prover, SearchStatus, parse_axiom, proof_to_json, render_proof
from .semantics import Counterexample, SemBound, prove_with_prescreen, soundness_check
from .types import parse_sequent, render_type


_END = object()  # closes a container on _emit's stack
_scalar = json.JSONEncoder(ensure_ascii=False).encode


def _emit(obj: dict, out: TextIO) -> None:
    """Print obj with string keys as json.dumps(obj, ensure_ascii=False)
    does, off an explicit stack: a flat proof nests as deep as it is long,
    which json.dumps cannot encode under the default recursion limit."""
    parts: list[str] = []
    stack: list[tuple[str, object]] = [("", obj)]
    while stack:
        text, x = stack.pop()
        parts.append(text)
        if isinstance(x, dict):
            parts.append("{")
            stack.append(("}", _END))
            entries = [(_scalar(k) + ": ", v) for k, v in x.items()]
        elif isinstance(x, (list, tuple)):
            parts.append("[")
            stack.append(("]", _END))
            entries = [("", v) for v in x]
        else:
            if x is not _END:
                parts.append(_scalar(x))
            continue
        # pushed last to first, so the first pops first; it takes no separator
        for k in range(len(entries) - 1, -1, -1):
            key, v = entries[k]
            stack.append((", " + key if k else key, v))
    print("".join(parts), file=out)


Answer = tuple[int, dict, Iterable[str]]  # exit status, the --json object, the text lines


def _proof_lines(head: list[str], proof: ProofTree | None) -> Iterator[str]:
    """head, then the proof as text, rendered only when printed: the indented
    text of a flat proof, as deep as it is long, grows with its square."""
    yield from head
    if proof is not None:
        yield render_proof(proof)


def _cmd_check(g: Grammar, args: argparse.Namespace) -> Answer:
    axioms = tuple(parse_axiom(a, g) for a in args.axiom)
    res = prove_with_prescreen(g, parse_sequent(args.sequent, g), SemBound(args.max_len), axioms)
    word = render_word(res.counterexample) if res.counterexample is not None else None
    proof = res.proof if args.tree else None
    if res.proved:
        lines = _proof_lines(["Proved"], proof)
    elif res.status is SearchStatus.REFUTED_BY_ORACLE:
        lines = [f"RefutedByOracle: {word}"]
    else:
        lines = ["NotFoundWithinBounds"]
    obj = {"status": res.status.value, "counterexample": word, "proof": proof_to_json(proof) if proof else None}
    return (0 if res.proved else 1), obj, lines


def _cmd_prove(g: Grammar, args: argparse.Namespace) -> Answer:
    axioms = tuple(parse_axiom(a, g) for a in args.axiom)
    res = Prover(g, axioms).prove(parse_sequent(args.sequent, g))
    if not res.proved:
        return 1, {"status": res.status.value, "proof": None}, ["NotFoundWithinBounds"]
    return 0, {"status": res.status.value, "proof": proof_to_json(res.proof)}, _proof_lines([], res.proof)


def _cmd_infer(g: Grammar, args: argparse.Namespace) -> Answer:
    w = word_from_text(g, args.word)
    atoms = tuple(g.symbol(n.strip()) for n in args.atoms.split(",")) if args.atoms else g.symbol_table().nonterminals
    types = [render_type(t) for t, _ in infer_typings(g, w, atoms, args.depth)]
    return (0 if types else 1), {"word": render_word(w), "depth": args.depth, "types": types}, types


def _cmd_enum(g: Grammar, args: argparse.Namespace) -> Answer:
    sym = g.symbol(args.symbol)
    words = [render_word(w) for w in iter_words_sorted(enumerate_words(g, sym, args.max_len))]
    return 0, {"symbol": args.symbol, "max_len": args.max_len, "words": words}, words


def _cmd_oracle(g: Grammar, args: argparse.Namespace) -> Answer:
    verdict = soundness_check(g, parse_sequent(args.sequent, g), SemBound(args.max_len), args.out_len)
    if isinstance(verdict, Counterexample):
        word = render_word(verdict.word)
        return 1, {"status": "Counterexample", "word": word}, [f"Counterexample: {word}"]
    return 0, {"status": "Pass", "checked": verdict.checked}, [f"Pass: {verdict.checked} words checked"]


def _cmd_ambig(g: Grammar, args: argparse.Namespace) -> Answer:
    outcome = check_unambiguous(g, g.symbol(args.symbol) if args.symbol else g.start, args.max_len)
    if isinstance(outcome, Witness):
        word = render_word(outcome.word)
        first, second = render_tree_text(outcome.first), render_tree_text(outcome.second)
        obj = {"status": "Ambiguous", "word": word, "first": first, "second": second}
        return 1, obj, [f"Ambiguous: {word}", first, "--", second]
    return 0, {"status": "Pass", "max_len": args.max_len}, [f"Pass: unambiguous up to length {args.max_len}"]


def _cmd_analyze(g: Grammar, args: argparse.Namespace) -> Answer:
    ctx = InjectionContext(
        prefix=word_from_text(g, args.prefix),
        suffix=word_from_text(g, args.suffix),
        goal=g.symbol(args.goal),
        expected=g.symbol(args.expect),
    )
    report = classify_input(g, ctx, word_from_text(g, args.input))
    lines = [report.classification.value]
    lines += [f"  capture {c.direction.value}: {render_type(c.type)}" for c in report.captures]
    lines.append(f"  reshaping: {type(report.reshaping).__name__}")
    return (0 if report.classification is Classification.BENIGN else 1), report.to_json(g), lines


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


def run(argv: list[str], out: TextIO | None = None, err: TextIO | None = None) -> int:
    """Answer one command line, writing to out and err (by default sys.stdout
    and sys.stderr as they are at the call); returns the exit status."""
    out, err = out or sys.stdout, err or sys.stderr
    parser = _build_parser()
    try:
        # argparse prints help, usage and its errors to the process's streams
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        g, notes = load_grammar(args.grammar)
        for note in notes:
            print(f"note: {note}", file=err)
        code, obj, lines = args.fn(g, args)
        if args.json:
            _emit(obj, out)
        else:
            for line in lines:
                print(line, file=out)
    except (ValueError, OSError, RecursionError) as e:
        # a RecursionError is an input too deep to handle, not a negative answer
        print(f"error: {e}", file=err)
        return 2
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
