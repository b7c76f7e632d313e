"""Grammar-parameterized Lambek calculus with a bounded semantic oracle.

Types classify string fragments over a context-free grammar; the sequent
calculus decides which fragments fit where, and the
analyzer uses doubly-negated typings to flag inputs that capture their
surrounding template: the shape a syntactic injection takes.
"""
from .analyzer import (
    AmbiguityError,
    CaptureTyping,
    Classification,
    ConservativeExtension,
    InjectionContext,
    InjectionReport,
    Reshaped,
    Unparseable,
    capture_typings,
    classify_input,
    context_tree,
    hole_language,
    infer_typings,
    reshaping_check,
)
from .earley import (
    Ambiguous,
    ParseTree,
    Reject,
    Unique,
    check_unambiguous,
    parse_tree,
    recognize,
    render_tree_text,
    tree_to_json,
)
from .grammar import (
    EMPTY_WORD,
    Grammar,
    GrammarError,
    Production,
    Symbol,
    SymbolKind,
    Word,
    enumerate_words,
    iter_words_sorted,
    load_grammar,
    nonterminal,
    parse_grammar_file,
    render_word,
    terminal,
    validate,
    word_from_text,
)
from .prover import (
    CheckResult,
    ProofTree,
    Prover,
    RuleName,
    SearchResult,
    SearchStatus,
    Side,
    TacticError,
    TypingAxiom,
    capture,
    check_proof,
    dni,
    elim_over,
    elim_under,
    parse_axiom,
    proof_from_json,
    proof_to_json,
    render_proof,
)
from .semantics import (
    Counterexample,
    OraclePass,
    SemBound,
    context_denotation_bounded,
    denotation_bounded,
    member_bounded,
    prove_with_prescreen,
    soundness_check,
)
from .types import (
    UNIT,
    Atom,
    LambekType,
    Over,
    Prod,
    Sequent,
    TypeSyntaxError,
    Under,
    UnitType,
    parse_sequent,
    parse_type,
    render_context,
    render_sequent,
    render_type,
    type_size,
    type_universe,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
