"""Slow, independent re-implementations used as test oracles.

Most of these work on frozensets of 1-based labels or brute-force
recursion in plain Python and share no representation tricks with the
package under test.  The exception is ``asc_walk``, the ascending-order
orderly search: it has its own candidate order, union table, closure
rule, canonical representative and mask-encoded orbit lanes
(``mask_lanes``), but borrows the package's counter columns
(``_member_counts``, ``_family_counts``, ``split_counts``), so it
cross-checks the search rather than those counters, which
tests/test_search_core.py checks on their own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from ucf import EnumerationConstraints, SetFamily
from ucf.enumeration import _family_counts, _member_counts, split_counts


def as_sets(family: SetFamily) -> list[tuple[int, ...]]:
    """The members as 1-based element tuples, in member order."""
    return [tuple(b + 1 for b in range(family.n) if mask >> b & 1) for mask in family.members]


def as_frozensets(family: SetFamily) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(s) for s in as_sets(family))


def relabel_mask(mask: int, perm: Sequence[int]) -> int:
    """Apply a 0-based bit permutation: bit b of the input moves to perm[b]."""
    return sum(1 << perm[b] for b in range(mask.bit_length()) if mask >> b & 1)


def relabel_family(family: SetFamily, perm: Sequence[int]) -> SetFamily:
    """Rename elements by a 0-based bit permutation of length n."""
    if sorted(perm) != list(range(family.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return SetFamily.from_masks(family.n, (relabel_mask(mask, perm) for mask in family.members))


def positions(mask: int) -> list[int]:
    """The set bits of mask, ascending: the pool positions a counter visit's
    bitmask chooses, in the order the walk chose them."""
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def family_key(family: SetFamily) -> int:
    """The listing key E(F) = sum(2^(2^n - 1 - m)) over the members m."""
    full = (1 << family.n) - 1
    return sum(1 << (full - m) for m in family.members)


def key_family(n: int, key: int) -> SetFamily:
    """The family over {1..n} whose listing key is key, as enumerate_families
    hands it out: mask m is a member iff bit 2^n - 1 - m of key is set."""
    full = (1 << n) - 1
    return SetFamily(n, tuple(m for m in range(full + 1) if key >> (full - m) & 1))


def naive_closure(sets_: set[frozenset[int]]) -> set[frozenset[int]]:
    """Union-closure by repeated full rescan."""
    closed = set(sets_)
    while True:
        new = {a | b for a in closed for b in closed} - closed
        if not new:
            return closed
        closed |= new


def naive_is_union_closed(sets_: set[frozenset[int]]) -> bool:
    return all(a | b in sets_ for a in sets_ for b in sets_)


def naive_canonical_members(family: SetFamily) -> tuple[int, ...]:
    """Lexicographically least relabeled member-mask tuple, found by
    relabeling the 1-based element sets under every permutation."""
    best = None
    for perm in itertools.permutations(range(1, family.n + 1)):
        masks = tuple(
            sorted(sum(1 << (perm[e - 1] - 1) for e in s) for s in as_sets(family))
        )
        if best is None or masks < best:
            best = masks
    assert best is not None or not family.members
    return best if best is not None else ()


def max_matching_by_recursion(masks: list[int], target: int) -> int:
    """Maximum number of disjoint index pairs with union == target."""

    def rec(idxs: tuple[int, ...]) -> int:
        if len(idxs) < 2:
            return 0
        first, rest = idxs[0], idxs[1:]
        best = rec(rest)  # leave first unmatched
        for k, j in enumerate(rest):
            if masks[first] | masks[j] == target:
                best = max(best, 1 + rec(rest[:k] + rest[k + 1 :]))
        return best

    return rec(tuple(range(len(masks))))


def lex_least_max_matching(masks: list[int], target: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """(pairs, residue) of the lex-least maximum matching of at most 8
    masks into pairs with union target, by listing every matching.

    Reading the vertices by index, each lowest vertex not yet read adds
    its partner's index to the key, or len(masks), which sorts after
    every index, when it is unmatched; its partner is then read too.
    Among the largest matchings the one with the least key wins.
    """
    size = len(masks)
    assert size <= 8, "the oracle lists every matching"
    edges = [(i, j) for i, j in itertools.combinations(range(size), 2) if masks[i] | masks[j] == target]
    matchings: list[dict[int, int]] = []

    def extend(start: int, partner: dict[int, int]) -> None:
        matchings.append(partner)
        for k in range(start, len(edges)):
            i, j = edges[k]
            if i not in partner and j not in partner:
                extend(k + 1, {**partner, i: j, j: i})

    def key(partner: dict[int, int]) -> list[int]:
        out: list[int] = []
        read: set[int] = set()
        for v in range(size):
            if v not in read:
                out.append(partner.get(v, size))
                read |= {v, partner.get(v, v)}
        return out

    extend(0, {})
    largest = max(map(len, matchings))
    best = min((m for m in matchings if len(m) == largest), key=key)
    pairs = tuple((masks[v], masks[w]) for v, w in sorted(best.items()) if v < w)
    residue = tuple(masks[v] for v in range(size) if v not in best)
    return pairs, residue


def mask_lanes(n: int, encoded: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Per-member increments of a packed orbit test over full-width mask
    encodings, and its bias bits.

    Lane i (in itertools.permutations order) is w bits wide with
    w - 8 >= 2^n, so it holds enc(identity) - enc(perm_i) + 2^(w-1)
    without overflow, enc being sum(2^e); the increment for encoded member
    e is 2^e - 2^perm_i(e) in every lane.
    """
    perms = list(itertools.permutations(range(n)))
    lane_bytes = max(1 << n, 8) // 8 + 1
    ones = int.from_bytes((b"\x01" + bytes(lane_bytes - 1)) * len(perms), "little")
    power = [(1 << e).to_bytes(lane_bytes, "little") for e in range(1 << n)]
    steps = tuple(
        (ones << e) - int.from_bytes(b"".join([power[relabel_mask(e, perm)] for perm in perms]), "little")
        for e in encoded
    )
    return steps, ones << (8 * lane_bytes - 1)


@dataclass(frozen=True)
class AscSearch:
    """Tables of the ascending walk for one (n, t) setting."""

    full: int
    members: tuple[int, ...]  # what every family has besides the chosen masks
    pool: tuple[int, ...]  # candidate masks, ascending
    # unions[a][b]: pool position of the masks' union a | b, or -1 when it
    # is a or b itself or the universe every family already holds
    unions: tuple[tuple[int, ...], ...]
    steps: tuple[int, ...]
    high: int
    cols: tuple[int, ...]
    base: int


@lru_cache(maxsize=None)
def asc_search(n: int, t: int) -> AscSearch:
    full = (1 << n) - 1
    pool = tuple(m for m in range(1, full) if t <= m.bit_count())
    pos = {mask: i for i, mask in enumerate(pool)}
    unions = tuple(
        tuple(-1 if a | b in (a, b) else pos.get(a | b, -1) for b in range(full + 1))
        for a in range(full + 1)
    )
    # encode complemented members, so the kept orbit representative is
    # canonical_form's
    steps, high = mask_lanes(n, [full ^ m for m in pool])
    members = (0, full)
    return AscSearch(
        full=full,
        members=members,
        pool=pool,
        unions=unions,
        steps=steps,
        high=high,
        cols=tuple(_member_counts(m, n) for m in pool),
        base=_family_counts(members, n),
    )


def asc_walk(c: EnumerationConstraints, visit: Callable[[tuple[int, ...], int], None] | None = None) -> int:
    """Count every family satisfying c (one per orbit when up_to_iso) by
    deciding candidates in ascending mask order; visit(members, counts)
    gets each family's sorted member masks and packed counters.

    A union of two masks is numerically >= both, so accepting a member
    forces its unions with the earlier members, which come later in the
    pool: a node is a family only once every forced candidate is taken,
    and a forced candidate cannot be skipped.  Up to isomorphism the
    walk keeps the families whose identity relabeling attains the orbit
    maximum of sum(2^complement(member)); dropping the largest member
    keeps that, so canonical families have canonical prefixes.
    """
    s = asc_search(c.n, c.t)
    pool, unions, steps, high, cols = s.pool, s.unions, s.steps, s.high, s.cols
    iso = c.up_to_iso
    chosen: list[int] = []

    def walk(pos0: int, forced: int, enc: int, counts: int) -> int:
        pending = forced >> pos0
        if pending:
            count = 0
            # the lowest forced candidate must be taken at its own position
            last = pos0 + (pending & -pending).bit_length() - 1
        else:
            if visit is not None:
                visit(tuple(sorted((*s.members, *chosen))), counts)
            count = 1
            last = len(pool) - 1
        for p in range(pos0, last + 1):
            enc2 = enc
            if iso:
                enc2 = enc + steps[p]
                if enc2 & high != high:
                    continue
            mask = pool[p]
            row = unions[mask]
            forced2 = forced
            for b in chosen:
                u = row[b]
                if u >= 0:
                    forced2 |= 1 << u
            chosen.append(mask)
            count += walk(p + 1, forced2, enc2, counts + cols[p])
            chosen.pop()
        return count

    return walk(0, 0, high, s.base)


def asc_families(c: EnumerationConstraints) -> list[SetFamily]:
    out: list[SetFamily] = []
    assert asc_walk(c, lambda members, counts: out.append(SetFamily(c.n, members))) == len(out)
    return out


def asc_by_t(c: EnumerationConstraints) -> tuple[int, dict[int, int]]:
    """The ascending walk's family count, and its split by T(F) read from
    the walk's counters."""
    by_t = [0] * (c.n + 1)

    def visit(members: tuple[int, ...], counts: int) -> None:
        by_t[split_counts(c.n, counts)[3]] += 1

    total = asc_walk(c, visit)
    assert total == sum(by_t)
    return total, {t: k for t, k in enumerate(by_t) if k}
