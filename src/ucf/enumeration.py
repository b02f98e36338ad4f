"""Exhaustive and isomorph-free enumeration of union-closed families.

Enumerated families live over {1..n} with n <= 6, always contain the
empty set and the full ground set M_n (for a union-closed family, the
latter is union(F) = M_n), and have every nonempty member of
cardinality >= t.  Two independent routes exist:

* an orderly depth-first search over candidate masks that maintains
  union-closure incrementally and can restrict itself to one canonical
  representative per relabeling orbit, and
* ``brute_force_enumerate``, a vectorized subset scan used as an oracle.

The search decides candidates in descending mask order.  A union of two
masks is numerically >= both, so when a candidate is accepted every
union constraint it creates points at already-decided candidates:
closure is a pure look-back test, and each accepted prefix is itself a
complete union-closed family.  The test reads a union table grouped by
union: for candidate p it lists each earlier candidate u together with
the bitmask of the later candidates whose union with p is u, so
accepting p keeps the candidates after it and drops each group whose u
is absent.  An ascending-order walk, where closure
propagates forward as forced candidates, lives in tests/oracles.py as
an independent cross-check of the counts.

Isomorph rejection is canonical augmentation.  Encode a family as
sum(2^mask) over its members and call it canonical when the identity
relabeling attains the orbit maximum of that encoding.  Removing the
smallest member preserves canonicity: if some relabeling strictly beat
the shrunk family, padding both sides back with the removed member
would beat the full family too, because the removed member's
power-of-two term is smaller than any gap between distinct encodings
of the remaining members.  Prefixes of canonical families are
therefore canonical, and non-canonical nodes prune whole subtrees
without losing any class.

The orbit test is one Python int of n! lanes, one per permutation pi,
each holding enc(identity) - enc(pi) plus a bias bit wider than any
encoding.  Accepting a member adds one precomputed int, and the node is
canonical iff every lane still has its bias bit set.  A labelled search
context has no lanes: every step is 0 and the bias is 0, so the same
accept step passes every node and both modes share one walk.

Next to the chosen candidates the walk carries one int of counters
that do not change under relabeling, one byte per lane: per-element
frequencies, per-size member counts (T(F) is the smallest nonempty
size) and the member count m.  Accepting a member adds its precomputed
column.  ``enumerate_families`` builds a SetFamily for every node;
``enumerate_job`` hands the visit the counters instead, so a campaign
checks every family without building it.

The search keeps a different representative per orbit than the public
canonical_form, which maximises sum(2^complement(mask)) over the orbit.
node_family and canonical_form find it as the orbit maximum of that
encoding over a precomputed (2^n, n!) table of uint64 lanes, one per
permutation, then relabel through a mask-image table.
enumerate_families keeps those lanes per depth of the walk instead:
each node's lanes are its parent's OR the row of its last member, so
an emitted family costs one vector OR and one argmax.  64-bit lanes
hold the encoding while 2^n <= 64, so canonical forms stop at n = 6.
A canonical form is also the canonical key: SetFamily is frozen, hence
hashable, and two families share a form iff they are isomorphic.

numpy is imported only by the oracle, by canonical_form and by that
relabel (its tables are built on first use); counting, counter visits,
labelled listings and campaigns run without it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from .core import (
    MAX_GROUND_SIZE,
    MIN_GROUND_SIZE,
    Mask,
    SetFamily,
    full_mask,
)
from .errors import InfeasibleScale

MAX_ENUM_GROUND = 6
MAX_CANONICAL_GROUND = 6
BRUTE_FORCE_POOL_CAP = 22

Visit = Callable[[SetFamily], None]
# visit(chosen, counts): chosen lists the family's pool positions and is
# the walk's own list (copy it to keep it); counts packs its counters,
# see split_counts
CounterVisit = Callable[[list[int], int], None]


@dataclass(frozen=True)
class EnumerationConstraints:
    """What to enumerate: union-closed families over {1..n} that hold {}
    and M_n, with nonempty members of size >= t, one per orbit if up_to_iso.

    n > MAX_ENUM_GROUND raises InfeasibleScale.  require_universe must be
    True; it stays a field because asdict() writes it into report bodies
    and checkpoint headers, and callers pass up_to_iso after it by position.
    """

    n: int
    t: int
    require_universe: bool = True
    up_to_iso: bool = False

    def __post_init__(self) -> None:
        if not MIN_GROUND_SIZE <= self.n <= MAX_GROUND_SIZE:
            raise ValueError(f"n={self.n} outside {MIN_GROUND_SIZE}..{MAX_GROUND_SIZE}")
        if not 1 <= self.t <= self.n:
            raise ValueError(f"t={self.t} outside 1..{self.n}")
        if self.require_universe is not True:
            raise ValueError("require_universe must be True: every enumerated family holds M_n")
        if self.n > MAX_ENUM_GROUND:
            raise InfeasibleScale(f"exhaustive enumeration is supported for n <= {MAX_ENUM_GROUND}, got n={self.n}")


def ensure_enumerable(constraints: EnumerationConstraints, unbounded: bool = False) -> None:
    """Reject n = 6 with t <= 2, a known census-scale blowup, unless
    unbounded acknowledges it."""
    if constraints.n == MAX_ENUM_GROUND and constraints.t <= 2 and not unbounded:
        raise InfeasibleScale(
            "n=6 with t<=2 is census-scale; pass unbounded=True (--unbounded) to run anyway"
        )


@lru_cache(maxsize=None)
def _perms(n: int) -> tuple[tuple[int, ...], ...]:
    # lexicographic, identity first
    return tuple(itertools.permutations(range(n)))


@lru_cache(maxsize=None)
def _images(n: int) -> list[list[Mask]]:
    """images[mask][i]: the image of mask under _perms(n)[i]."""
    perms = _perms(n)
    images = [[0] * len(perms)]
    singles = [[1 << perm[b] for perm in perms] for b in range(n)]
    for mask in range(1, 1 << n):
        low = mask & -mask
        single = singles[low.bit_length() - 1]
        images.append([a | s for a, s in zip(images[mask ^ low], single)])
    return images


@lru_cache(maxsize=None)
def _comp_powers(n: int):
    """(2^n, n!) uint64 numpy table: row m holds 2^image(complement(m))
    under each permutation, in _perms order.

    OR-ed over a family's members (distinct members have distinct
    images, so this is their sum) it gives the per-permutation encoding
    whose maximum marks the public canonical representative: a larger
    encoding means a lexicographically smaller ascending member list.
    Exact while 2^n <= 64, hence MAX_CANONICAL_GROUND.
    """
    import numpy as np

    images = np.array(_images(n), dtype=np.uint64)
    return np.uint64(1) << images[full_mask(n) ^ np.arange(1 << n)]


def _relabel(n: int, masks: Sequence[Mask], enc) -> list[Mask]:
    """masks relabeled by a permutation whose encoding in enc (one
    _comp_powers lane per permutation) is largest."""
    perm = int(enc.argmax())
    images = _images(n)
    return [images[m][perm] for m in masks]


def canonical_form(family: SetFamily) -> SetFamily:
    """The family relabeled to the representative of its orbit with the
    lexicographically least member tuple; two families share it iff
    they are relabel-isomorphic, so it serves as their canonical key.

    Supported for n <= MAX_CANONICAL_GROUND (6); larger n raises
    InfeasibleScale.
    """
    n = family.n
    if n > MAX_CANONICAL_GROUND:
        raise InfeasibleScale(f"canonical keys need an S_n scan; supported for n <= {MAX_CANONICAL_GROUND}")
    if not family.members:
        return family
    import numpy as np

    enc = np.bitwise_or.reduce(_comp_powers(n)[list(family.members)], axis=0)
    return SetFamily(n, tuple(sorted(_relabel(n, family.members, enc))))


def _orbit_lanes(n: int, encoded: Sequence[Mask]) -> tuple[tuple[int, ...], int]:
    """Per-member increments of the packed orbit test, and its bias bits.

    Lane i (in _perms order) is w bits wide with w - 8 >= 2^n, so it
    holds enc(identity) - enc(perms[i]) + 2^(w-1) without overflow; the
    increment for encoded member e is 2^e - 2^perms[i](e) in every lane.
    """
    lane_bytes = max(1 << n, 8) // 8 + 1
    ones = int.from_bytes((b"\x01" + bytes(lane_bytes - 1)) * len(_perms(n)), "little")
    images = _images(n)
    power = [(1 << e).to_bytes(lane_bytes, "little") for e in range(1 << n)]
    steps = tuple(
        (ones << e) - int.from_bytes(b"".join([power[i] for i in images[e]]), "little")
        for e in encoded
    )
    return steps, ones << (8 * lane_bytes - 1)


def _member_counts(mask: Mask, n: int) -> int:
    """The packed counters (see split_counts) of the family {mask}."""
    lanes = [mask >> b & 1 for b in range(n)] + [0] * (n + 1) + [1]
    lanes[n + mask.bit_count()] = 1
    return int.from_bytes(bytes(lanes), "little")


def split_counts(n: int, counts: int) -> tuple[int, int, int, int]:
    """(m, freq, levels, t) from the packed counters of a family over M_n.

    counts holds one byte per lane: byte e-1 counts the members holding
    element e, byte n+k the members of size k, and the bytes from 2n+1
    on hold the member count m.  freq and levels keep their lanes (byte
    e-1, byte k), and t is T(F), the smallest k >= 1 with a member of
    size k, or 0 without a nonempty member.  A family over M_n has at
    most 2^n <= 64 members for enumerable n, so no lane overflows.
    """
    lane = 8 * n
    freq = counts & ((1 << lane) - 1)
    levels = counts >> lane & ((1 << (lane + 8)) - 1)
    above = levels >> 8
    return counts >> (2 * lane + 8), freq, levels, ((above & -above).bit_length() + 7) >> 3


@dataclass
class _Search:
    """Precomputed search tables for one EnumerationConstraints."""

    n: int
    # members every node has: the empty set and M_n
    fixed: tuple[Mask, ...]
    pool: tuple[Mask, ...]
    # groups[p]: (u, qs) pairs, qs the later candidates whose union with
    # pool[p] is the strict superset pool[u] (an earlier candidate)
    groups: tuple[tuple[tuple[int, int], ...], ...]
    # cols[p]: packed counters of {pool[p]}; base: of the family with no
    # candidate chosen, so a node's counters are base plus its columns
    cols: tuple[int, ...]
    base: int
    # orbit lanes: all 0 in a labelled context, so every node passes
    steps: tuple[int, ...]
    high: int

    @property
    def size(self) -> int:
        return len(self.pool)


@lru_cache(maxsize=64)
def _search_context(c: EnumerationConstraints) -> _Search:
    n = c.n
    full = full_mask(n)
    fixed = (0, full)
    pool = tuple(m for m in range(full - 1, 0, -1) if c.t <= m.bit_count())
    pos = {mask: i for i, mask in enumerate(pool)}
    groups = []
    for p, a in enumerate(pool):
        # a union with a later (smaller) candidate is a itself or larger;
        # a forced M_n is not in pos and constrains nothing
        by_union: dict[int, int] = {}
        for q in range(p + 1, len(pool)):
            u = pos.get(a | pool[q], p)
            if u != p:
                by_union[u] = by_union.get(u, 0) | 1 << q
        groups.append(tuple(by_union.items()))
    steps, high = _orbit_lanes(n, pool) if c.up_to_iso else ((0,) * len(pool), 0)
    return _Search(
        n=n,
        fixed=fixed,
        pool=pool,
        groups=tuple(groups),
        cols=tuple(_member_counts(m, n) for m in pool),
        base=sum(_member_counts(m, n) for m in fixed),
        steps=steps,
        high=high,
    )


def _family(ctx: _Search, masks: list[Mask]) -> SetFamily:
    """The family of the chosen masks plus the members every node has."""
    masks += ctx.fixed
    masks.sort()
    return SetFamily(ctx.n, tuple(masks))


def node_family(c: EnumerationConstraints, chosen: Sequence[int]) -> SetFamily:
    """The family behind a counter visit's chosen positions, exactly as
    enumerate_families visits it."""
    ctx = _search_context(c)
    family = _family(ctx, [ctx.pool[p] for p in chosen])
    if c.up_to_iso:
        return canonical_form(family)
    return family


def _canonical_emit(ctx: _Search, visit: Visit) -> CounterVisit:
    """A counter visit of the iso walk that hands visit each node
    relabeled to its public canonical form.

    The walk visits in preorder, so when a node of depth d is visited,
    lanes[d - 1] still holds its parent's complement encodings; the
    node's are those OR the row of its last chosen member.
    """
    import numpy as np

    n, pool = ctx.n, ctx.pool
    powers = _comp_powers(n)
    rows = [powers[m] for m in pool]
    lanes = [np.zeros(powers.shape[1], dtype=np.uint64) for _ in range(ctx.size + 1)]

    def emit(chosen: list[int], counts: int) -> None:
        masks = [pool[p] for p in chosen]
        d = len(chosen)
        if d:
            np.bitwise_or(lanes[d - 1], rows[chosen[-1]], out=lanes[d])
            masks = _relabel(n, masks, lanes[d])
        visit(_family(ctx, masks))

    return emit


def _filter_viable(ctx: _Search, viable: int, p: int, present: int) -> int:
    """The viable candidates after p, less those whose union with
    pool[p] is absent."""
    out = viable >> (p + 1) << (p + 1)
    for u, qs in ctx.groups[p]:
        if not present >> u & 1:
            out &= ~qs
    return out


def _walk_desc(
    ctx: _Search,
    visit: CounterVisit | None,
    present: int,
    viable: int,
    enc: int,
    chosen: list[int],
    counts: int,
) -> int:
    # every node is a complete family: unions of accepted masks are
    # numerically larger, hence already decided and present
    if visit is not None:
        visit(chosen, counts)
    count = 1
    steps, high, cols = ctx.steps, ctx.high, ctx.cols
    rem = viable
    while rem:
        low = rem & -rem
        p = low.bit_length() - 1
        rem ^= low
        enc2 = enc + steps[p]
        if enc2 & high != high:
            continue
        chosen.append(p)
        count += _walk_desc(
            ctx,
            visit,
            present | low,
            _filter_viable(ctx, viable, p, present),
            enc2,
            chosen,
            counts + cols[p],
        )
        chosen.pop()
    return count


def enumerate_families(
    c: EnumerationConstraints,
    visit: Visit | None = None,
    *,
    unbounded: bool = False,
) -> int:
    """Visit every family satisfying c (one per orbit when up_to_iso).

    Returns the count; the visit stream is deterministic for given
    constraints.  Families arrive union-closed with the empty
    set included, and in up_to_iso mode each is its orbit's canonical
    representative.
    """
    ensure_enumerable(c, unbounded)
    ctx = _search_context(c)
    if visit is None:
        sink = None
    elif c.up_to_iso:
        sink = _canonical_emit(ctx, visit)
    else:
        pool = ctx.pool

        def sink(chosen: list[int], counts: int) -> None:
            visit(_family(ctx, [pool[p] for p in chosen]))

    viable = (1 << ctx.size) - 1
    return _walk_desc(ctx, sink, 0, viable, ctx.high, [], ctx.base)


def job_depth(c: EnumerationConstraints) -> int:
    """How many leading candidate decisions define one work unit."""
    return max(0, min(10, _search_context(c).size - 6))


def subtree_jobs(c: EnumerationConstraints) -> list[int]:
    """All job ids: assignments of the first job_depth() candidates."""
    return list(range(1 << job_depth(c)))


def enumerate_job(
    c: EnumerationConstraints,
    job: int,
    visit: CounterVisit | None = None,
    *,
    unbounded: bool = False,
) -> int:
    """Enumerate one subtree; summing over subtree_jobs equals the full count.

    Replays the job's fixed decisions with the same closure and
    canonicity tests the full search applies, so invalid assignments
    cost nothing and no family is visited by two different jobs.  The
    visit gets each family's chosen positions and packed counters, and
    no family is built (node_family builds one).
    """
    ensure_enumerable(c, unbounded)
    ctx = _search_context(c)
    depth = job_depth(c)
    enc = ctx.high
    counts = ctx.base
    chosen: list[int] = []
    present = 0
    viable = (1 << ctx.size) - 1
    for i in range(depth):
        if not job >> i & 1:
            continue
        if not viable >> i & 1:
            return 0
        enc += ctx.steps[i]
        if enc & ctx.high != ctx.high:
            return 0
        viable = _filter_viable(ctx, viable, i, present)
        present |= 1 << i
        chosen.append(i)
        counts += ctx.cols[i]
    # the job decided every candidate below depth; those it left out stay out
    return _walk_desc(ctx, visit, present, viable >> depth << depth, enc, chosen, counts)


def brute_force_enumerate(c: EnumerationConstraints) -> list[SetFamily]:
    """Oracle route: filter every subset of the candidate pool.

    The pool is every mask of cardinality t..n-1 (M_n, which every
    family holds, is not in it), capped at 22 candidates (2^22 subsets),
    which covers all of n <= 4 plus the constrained n=6 slices with
    t >= 4.  Intentionally shares no code with the orderly search.
    """
    import numpy as np

    full = full_mask(c.n)
    pool = [m for m in range(1, full) if c.t <= m.bit_count()]
    size = len(pool)
    if size > BRUTE_FORCE_POOL_CAP:
        raise InfeasibleScale(
            f"candidate pool has {size} sets; the oracle scans 2^pool and caps at {BRUTE_FORCE_POOL_CAP}"
        )
    pos = {mask: i for i, mask in enumerate(pool)}
    subs = np.arange(1 << size, dtype=np.uint32)
    ok = np.ones(subs.shape, dtype=bool)
    for i in range(size):
        for j in range(i + 1, size):
            u = pool[i] | pool[j]
            if u == pool[i] or u == pool[j] or u == full:
                continue
            bad = (subs >> np.uint32(i)) & (subs >> np.uint32(j)) & ~(subs >> np.uint32(pos[u])) & np.uint32(1)
            ok &= bad == 0
    families = []
    for s in np.nonzero(ok)[0].tolist():
        masks = [0, full] + [pool[i] for i in range(size) if s >> i & 1]
        families.append(SetFamily.from_masks(c.n, masks))
    if c.up_to_iso:
        families = sorted({canonical_form(f) for f in families}, key=lambda f: f.members)
    return families
