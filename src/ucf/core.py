"""Set families over a small ground set, stored as integer bitmasks.

Element i of the ground set {1, ..., n} corresponds to bit i-1, so the
full ground set is the mask 2^n - 1 and the empty set is 0.  A family is
a strictly ascending tuple of such masks; all arithmetic is exact integer
work on Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import NoNonemptyMember, NotInScope, PreconditionViolation

Mask = int

MIN_GROUND_SIZE = 2
MAX_GROUND_SIZE = 12


def full_mask(n: int) -> Mask:
    """Mask of the whole ground set {1, ..., n}."""
    return (1 << n) - 1


def mask_from_elements(elements: Iterable[int], n: int) -> Mask:
    """Build a mask from 1-based element labels, validating the range."""
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside 1..{n}")
        mask |= 1 << (e - 1)
    return mask


class MaskTables(NamedTuple):
    """Lookups by mask, for every mask below 2^n."""

    elements: list[tuple[int, ...]]  # 1-based labels, ascending
    lines: list[str]  # the member line of a family file: "{}", "1,2,6"
    columns: list[int]  # 1 << 16 * (i - 1) summed over the elements i
    masks: dict[str, Mask]  # lines inverted


@lru_cache(maxsize=None)
def mask_tables(n: int) -> MaskTables:
    """The MaskTables of ground size n, built on its first use.  Those of
    n extend those of n - 1 by the masks holding element n.  A family
    has at most 2^12 members, so a sum of its columns keeps every
    element's count in its own 16-bit lane."""
    if n == 0:
        return MaskTables([()], ["{}"], [0], {"{}": 0})
    elements, lines, columns, _ = mask_tables(n - 1)
    elements = elements + [e + (n,) for e in elements]
    lines = lines + [str(n)] + [f"{line},{n}" for line in lines[1:]]
    columns = columns + [c | 1 << 16 * (n - 1) for c in columns]
    return MaskTables(elements, lines, columns, dict(zip(lines, range(1 << n))))


def elements_of_mask(mask: Mask) -> tuple[int, ...]:
    """1-based element labels of a mask below 2^MAX_GROUND_SIZE, ascending."""
    return mask_tables(MAX_GROUND_SIZE).elements[mask]


@dataclass(frozen=True)
class SetFamily:
    """A family of subsets of {1, ..., n} as strictly ascending masks.

    The ascending-mask invariant makes equality of families structural
    equality of the dataclass, and keeps every derived artifact (files,
    canonical keys, reports) deterministic.
    """

    n: int
    members: tuple[Mask, ...]

    def __post_init__(self) -> None:
        if not MIN_GROUND_SIZE <= self.n <= MAX_GROUND_SIZE:
            raise ValueError(
                f"ground set size {self.n} outside "
                f"{MIN_GROUND_SIZE}..{MAX_GROUND_SIZE}"
            )
        top = full_mask(self.n)
        prev = -1
        for mask in self.members:
            if not isinstance(mask, int) or not 0 <= mask <= top:
                raise ValueError(f"mask {mask!r} outside 0..{top}")
            if mask <= prev:
                raise ValueError("members must be strictly ascending masks")
            prev = mask

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[Mask]) -> "SetFamily":
        """Family from masks in any order; duplicates collapse."""
        return cls(n, tuple(sorted(set(masks))))

    @classmethod
    def from_sets(cls, n: int, sets_: Iterable[Iterable[int]]) -> "SetFamily":
        """Family from iterables of 1-based element labels."""
        return cls.from_masks(n, (mask_from_elements(s, n) for s in sets_))

    @property
    def m(self) -> int:
        """Number of member sets (the empty set counts)."""
        return len(self.members)

    def members_of_size(self, k: int) -> tuple[Mask, ...]:
        return tuple([mask for mask in self.members if mask.bit_count() == k])


class FrequencyProfile(NamedTuple):
    """Element frequencies of a family.

    freq[i-1] is the number of members containing element i, m is the
    total member count (empty set included), and abundant holds the
    1-based elements with 2 * freq >= m.
    """

    freq: tuple[int, ...]
    m: int
    abundant: frozenset[int]


class Lemma12Result(NamedTuple):
    min_freq: int
    holds: bool


def is_union_closed(family: SetFamily) -> bool:
    """True iff the union of any two members is again a member."""
    present = set(family.members)
    members = family.members
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if a | b not in present:
                return False
    return True


def union_closure(family: SetFamily) -> SetFamily:
    """Smallest union-closed family containing the input.

    Fixed point of pairwise unions: each member joins every input
    member once, in the round after it appears, which closes the family
    since each member is a union of input members.  Never adds the empty
    set on its own and never leaves the power set of the input's union.
    """
    members = frontier = set(family.members)
    while frontier:
        frontier = {a | g for a in frontier for g in family.members} - members
        members |= frontier
    return SetFamily.from_masks(family.n, members)


def t_value(family: SetFamily) -> int:
    """T(F): minimum cardinality over nonempty members."""
    sizes = [mask.bit_count() for mask in family.members if mask]
    if not sizes:
        raise NoNonemptyMember("family has no nonempty member")
    return min(sizes)


def level_profile(family: SetFamily) -> tuple[int, ...]:
    """counts[k] = number of members of cardinality k, for k = 0..n."""
    counts = [0] * (family.n + 1)
    for mask in family.members:
        counts[mask.bit_count()] += 1
    return tuple(counts)


def frequency_profile(family: SetFamily) -> FrequencyProfile:
    packed = sum(map(mask_tables(family.n).columns.__getitem__, family.members))
    # per-family tuples come from lists: a generator puts its frame on the heap
    freq = tuple([packed >> 16 * i & 0xFFFF for i in range(family.n)])
    m = len(family.members)
    # integer threshold: element i is abundant iff 2*freq >= m
    abundant = frozenset([i + 1 for i, f in enumerate(freq) if 2 * f >= m])
    return FrequencyProfile(freq, m, abundant)


def frankl_holds(family: SetFamily) -> bool:
    """Some element lies in at least half of the members.

    Assumes the family is union-closed; raises NoNonemptyMember when
    there is no nonempty member to speak about.
    """
    if all(mask == 0 for mask in family.members):
        raise NoNonemptyMember("no nonempty member; the statement is vacuous")
    return bool(frequency_profile(family).abundant)


def s_frankl_holds(family: SetFamily) -> bool:
    """At least T(F) elements lie in at least half of the members.

    Defined for union-closed families with T(F) >= 2; T(F) = 1 raises
    NotInScope since the statement quantifies over k >= 2.
    """
    t = t_value(family)
    if t == 1:
        raise NotInScope("T(F) = 1; the strengthened statement needs T >= 2")
    return len(frequency_profile(family).abundant) >= t


def lemma_1_2_bound(m_mask: Mask, coatoms: SetFamily) -> Lemma12Result:
    """Minimum element frequency within a family of co-atoms of M.

    Input is a mask M with |M| >= 2 and a family of at least two distinct
    subsets of M of cardinality |M| - 1.  Every element of M misses at
    most one co-atom, so the minimum frequency is at least |G| - 1; the
    result reports the measured minimum and that comparison.
    """
    size = m_mask.bit_count()
    if size < 2:
        raise PreconditionViolation("M must have at least 2 elements")
    if coatoms.m < 2:
        raise PreconditionViolation("need at least 2 co-atoms")
    for mask in coatoms.members:
        if mask | m_mask != m_mask:
            raise PreconditionViolation(f"co-atom {mask} not a subset of M")
        if mask.bit_count() != size - 1:
            raise PreconditionViolation(
                f"co-atom {mask} does not have cardinality |M| - 1"
            )
    # two distinct co-atoms cover M, so M lies within 1..coatoms.n
    freq = frequency_profile(coatoms).freq
    min_freq = min(freq[e - 1] for e in mask_tables(coatoms.n).elements[m_mask])
    return Lemma12Result(min_freq, min_freq >= coatoms.m - 1)
