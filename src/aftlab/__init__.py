"""Non-deterministic approximation fixpoint semantics for propositional
disjunctive logic programs with aggregates, over finite powerset lattices."""

from .lattice import (
    AftlabError,
    ApproxPair,
    AtomUniverse,
    CapExceededError,
    InconsistentPairError,
    NdPair,
    UnknownAtomError,
    aprec_leq,
    difference,
    gap,
    hoare_leq,
    leq_i,
    leq_t,
    smyth_leq,
)
from .four import Truth, eval_pair, eval_two, ht_satisfies, ht_satisfies_rule
from .program import (
    FormulaDepthError,
    ParseError,
    Program,
    ProgramClassError,
    classify,
    gl_transform,
    gz_reduct,
    parse,
    print_program,
)
from .operators import OperatorKind, apply, hd, hitting_sets, ic
from .semantics import (
    SemanticsResult,
    fixpoints,
    gz_answer_sets,
    ht_models_program,
    ht_pairs,
    kk_fixpoint_det,
    run_semantics,
    seq,
    seq_no_difference,
    stable_fixpoints,
    three_valued_stable,
    total_stable_fixpoints,
    wf_fixpoint_det,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
