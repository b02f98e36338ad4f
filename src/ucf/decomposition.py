"""Structural devices for union-closed families: the four-way shape
taxonomy of n=6, T=3 families, pair decompositions of level slices, and
abundance witnesses certifying the at-least-T-abundant-elements claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    FrequencyProfile,
    Mask,
    SetFamily,
    frequency_profile,
    full_mask,
    is_union_closed,
    level_profile,
    t_value,
)
from .errors import (
    InfeasibleScale,
    NotInScope,
    PreconditionViolation,
    WitnessUnavailable,
)

# indexed by (has a 4-set, has a 5-set) read as two binary digits
SHAPE_TAGS = ("G3", "G3_G5", "G3_G4", "G3_G4_G5")
# pair_decompose's memoized search is exponential in the slice size;
# every level over M_6 holds at most C(6, 3) = 20 masks
MAX_EXACT_SLICE = 20


@dataclass(frozen=True)
class PairDecomposition:
    """A maximum matching of a slice into pairs with a fixed union.

    pairs holds the matched mask pairs, residue the unmatched masks,
    k = len(pairs).  With target = M_n, each matched pair covers every
    element of the ground set at least once, so every element belongs
    to at least k of the 2k matched sets.
    """

    pairs: tuple[tuple[Mask, Mask], ...]
    residue: tuple[Mask, ...]
    k: int
    target: Mask

    def __post_init__(self) -> None:
        if self.k != len(self.pairs):
            raise ValueError("k must equal len(pairs)")
        for a, b in self.pairs:
            if a | b != self.target:
                raise ValueError(f"pair ({a},{b}) does not reach the target union")


@dataclass(frozen=True)
class AbundanceWitness:
    """Elements in at least half the members, with their certificates.

    counts[i] pairs with elements[i]; every entry satisfies
    2 * counts[i] >= m.
    """

    elements: tuple[int, ...]
    m: int
    counts: tuple[int, ...]

    @classmethod
    def of(cls, t: int, prof: FrequencyProfile) -> AbundanceWitness:
        """The witness read off a family's T(F) and frequency profile;
        WitnessUnavailable when fewer than t elements are abundant."""
        elements = tuple(sorted(prof.abundant))
        if len(elements) < t:
            raise WitnessUnavailable(
                f"only {len(elements)} abundant element(s), need {t}: "
                f"freq={prof.freq}, m={prof.m}"
            )
        return cls(elements, prof.m, tuple([prof.freq[e - 1] for e in elements]))


def classify_shape(family: SetFamily) -> str:
    """The SHAPE_TAGS entry naming which of the 4/5 levels of an n=6,
    T=3 family are populated.

    The empty set and the full ground set are required members; the
    3-level is nonempty because T=3.  NotInScope on any precondition
    failure rather than guessing.
    """
    if family.n != 6:
        raise NotInScope(f"shape taxonomy is defined for n=6 families, got n={family.n}")
    members = set(family.members)
    if 0 not in members:
        raise NotInScope("the empty set must be a member")
    if full_mask(6) not in members:
        raise NotInScope("the full ground set must be a member")
    t = t_value(family)  # M_6 is a nonempty member
    if t != 3:
        raise NotInScope(f"shape taxonomy needs T(F)=3, got T={t}")
    if not is_union_closed(family):
        raise NotInScope("family is not union-closed")
    levels = level_profile(family)
    return SHAPE_TAGS[2 * (levels[4] > 0) + (levels[5] > 0)]


def _matching_size(remaining: int, nbr: list[int], memo: dict[int, tuple[int, int]]) -> tuple[int, int]:
    """(size, partner) of a maximum matching on the vertex subset given as a
    bitmask: partner is the smallest partner of its lowest vertex that keeps
    the size maximum (a match wins a tie), or -1 when none does."""
    if remaining == 0:
        return 0, -1
    cached = memo.get(remaining)
    if cached is not None:
        return cached
    low = remaining & -remaining
    rest = remaining ^ low
    best, partner = _matching_size(rest, nbr, memo)[0], -1  # leave the vertex unmatched
    cand = nbr[low.bit_length() - 1] & rest
    while cand:
        wl = cand & -cand
        cand ^= wl
        got = 1 + _matching_size(rest ^ wl, nbr, memo)[0]
        if got > best or (got == best and partner < 0):
            best, partner = got, wl.bit_length() - 1
    memo[remaining] = best, partner
    return best, partner


def pair_decompose(slice_masks: Sequence[Mask], target: Mask) -> PairDecomposition:
    """Maximum matching of the slice into pairs whose union is target.

    Deterministic tie-break: among maximum matchings, the pair list that
    is lexicographically least under the input index order (so the
    lowest index is matched whenever some maximum matching does so, with
    the smallest possible partner).  Exhaustive via memoized search,
    which is exponential in the slice size: slices of more than
    MAX_EXACT_SLICE masks (more than any level over M_6 holds) raise
    InfeasibleScale.
    """
    masks = list(slice_masks)
    seen: set[Mask] = set()
    for mask in masks:
        if mask in seen:
            raise PreconditionViolation(f"slice members must be distinct, {mask} repeats")
        seen.add(mask)
        if mask | target != target:
            raise PreconditionViolation(f"slice member {mask} is not a subset of the target universe")
    size = len(masks)
    if size > MAX_EXACT_SLICE:
        raise InfeasibleScale(f"slice of {size} masks; the exact pair search stops at {MAX_EXACT_SLICE}")
    nbr = [0] * size
    for i in range(size):
        for j in range(i + 1, size):
            if masks[i] | masks[j] == target:
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
    memo: dict[int, tuple[int, int]] = {}
    pairs: list[tuple[Mask, Mask]] = []
    residue: list[Mask] = []
    remaining = (1 << size) - 1
    while remaining:
        low = remaining & -remaining
        v = low.bit_length() - 1
        partner = _matching_size(remaining, nbr, memo)[1]
        if partner < 0:
            residue.append(masks[v])
            remaining ^= low
        else:
            pairs.append((masks[v], masks[partner]))
            remaining ^= low | 1 << partner
    return PairDecomposition(tuple(pairs), tuple(residue), len(pairs), target)


def abundance_witness(family: SetFamily) -> AbundanceWitness:
    """Certify that at least T(F) elements are abundant (at least one
    when T(F) = 1, which is the plain Frankl statement).

    WitnessUnavailable when too few elements qualify; that is exactly
    how a counterexample would surface.
    """
    return AbundanceWitness.of(t_value(family), frequency_profile(family))
