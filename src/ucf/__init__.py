"""Union-closed set families over small ground sets.

Exact integer machinery for the union-closed sets conjecture and its
strengthened at-least-T-abundant-elements form: family algebra on
bitmasks, structural decompositions, isomorph-free exhaustive
enumeration with a brute-force oracle, and campaign-level verification
with deterministic reports.
"""

from .core import (
    FrequencyProfile,
    Lemma12Result,
    Mask,
    SetFamily,
    elements_of_mask,
    frankl_holds,
    frequency_profile,
    full_mask,
    is_union_closed,
    lemma_1_2_bound,
    level_profile,
    mask_from_elements,
    s_frankl_holds,
    t_value,
    union_closure,
)
from .decomposition import (
    SHAPE_TAGS,
    AbundanceWitness,
    PairDecomposition,
    abundance_witness,
    classify_shape,
    pair_decompose,
)
from .enumeration import (
    EnumerationConstraints,
    brute_force_enumerate,
    canonical_form,
    enumerate_families,
)
from .errors import (
    InfeasibleScale,
    NoNonemptyMember,
    NotInScope,
    ParseError,
    PreconditionViolation,
    UcfError,
    WitnessUnavailable,
)
from .fileformat import format_family, parse_family
from .verifier import (
    CHECK_NAMES,
    CheckRecord,
    VerificationReport,
    check_single,
    run_campaign,
)

__all__ = [
    "AbundanceWitness",
    "CheckRecord",
    "CHECK_NAMES",
    "EnumerationConstraints",
    "FrequencyProfile",
    "InfeasibleScale",
    "Lemma12Result",
    "Mask",
    "NoNonemptyMember",
    "NotInScope",
    "PairDecomposition",
    "ParseError",
    "PreconditionViolation",
    "SetFamily",
    "SHAPE_TAGS",
    "UcfError",
    "VerificationReport",
    "WitnessUnavailable",
    "abundance_witness",
    "brute_force_enumerate",
    "canonical_form",
    "check_single",
    "classify_shape",
    "elements_of_mask",
    "enumerate_families",
    "format_family",
    "frankl_holds",
    "frequency_profile",
    "full_mask",
    "is_union_closed",
    "lemma_1_2_bound",
    "level_profile",
    "mask_from_elements",
    "pair_decompose",
    "parse_family",
    "run_campaign",
    "s_frankl_holds",
    "t_value",
    "union_closure",
]
