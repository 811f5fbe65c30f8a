"""Exact-arithmetic calculus for multiple zeta values.

Compositions, the duality involution, the fixed-weight total order,
closed stuffle/shuffle expansions for the left factors (1), (2), (3)
and (2,1) validated against brute-force products, relation sets with
certified exact rank reduction, and a numeric referee that encloses
every value in a proven interval.
"""

from .core import (
    ABForm,
    Composition,
    NotConvergentError,
    ParseError,
    Signature,
    Word,
    decode_word,
    dual,
    encode_word,
    format_composition,
    from_ab,
    is_self_dual,
    parse_composition,
    signature,
    to_ab,
)
from .ordering import compare, enumerate_weight, index_of
from .counting import (
    CountReport,
    FamilyTermCounts,
    count_report,
    family_term_counts,
    hoffman_dim,
    hoffman_set,
    is_hoffman,
    n_fixed_ones,
    n_total,
    n_wd,
    n_wdh,
)
from .oracle import InternalConsistencyError, LinComb, dsr, shuffle, shuffle_words, stuffle
from .closedforms import (
    PRINT_CORRECTIONS,
    DiscrepancyReport,
    closed_dsr,
    closed_shuffle,
    closed_stuffle,
    closed_terms,
    reconcile,
    reconcile_one,
)
from .engine import (
    HoffmanReport,
    Relation,
    RelationSet,
    assemble_matrix,
    exact_rref,
    generate_relations,
    hoffman_reduce,
    verify_numeric,
)
from .numeric import EvalResult, ToleranceUnreachable, eval_mzv

__version__ = "0.1.0"
