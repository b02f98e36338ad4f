"""Exhaustive and isomorph-free enumeration of union-closed families.

Enumerated families live over {1..n} with n <= 6, always contain the
empty set and the full ground set M_n (for a union-closed family, the
latter is union(F) = M_n), and have every nonempty member of
cardinality >= t.  Two independent routes exist:

* an orderly depth-first search over candidate masks, one recursion
  entered through _walk, that maintains union-closure incrementally and
  can restrict itself to one canonical representative per relabeling
  orbit, and
* ``brute_force_enumerate``, a vectorized subset scan used as an oracle.

The search decides candidates in descending mask order, and up to
isomorphism size-major, by (|m|, m) descending.  Both orders put every
strict superset of a mask before it, and the union of two masks is one
of them or a strict superset of both, so every union constraint an
accepted candidate creates points at already-decided candidates:
closure is a pure look-back test, and each accepted prefix is itself a
complete union-closed family.  The test reads a union table grouped by
union: for candidate p it lists each earlier candidate u together with
the bitmask of the later candidates whose union with p is u, so
accepting p keeps the candidates after it in p's closure mask, less
each group whose u is absent.  Size-major, every u is larger than p and
between two level switches (below) the walk adds members of one size
only, so it keeps each mask from its first use to the next switch; a
labelled walk has no levels and filters each child afresh.  An
ascending-order walk, where closure propagates forward as forced
candidates, lives in tests/oracles.py as an independent cross-check.

Isomorph rejection is canonical augmentation.  Relabeling keeps sizes,
so it maps the pool onto itself; a candidate's rank is len(pool) - 1 -
its position, so ranks ascend in (|m|, m).  Encode a family as
sum(2^rank) over its candidates ({} and M_n are fixed by every
relabeling, so their terms would cancel in every comparison) and call
it canonical when the identity relabeling attains the orbit maximum of
that encoding.  Removing the member s of lowest rank preserves
canonicity: if a relabeling strictly beat the shrunk family, the
largest rank where the two differ would lie above rank(s), so the lead
would exceed the 2^rank(s) that s adds back, and the relabeling would
beat the full family too.  Prefixes of canonical families are therefore
canonical, and non-canonical nodes prune whole subtrees without losing
any class.

The orbit test is one Python int of lanes, one per permutation pi,
each holding enc(identity) - enc(pi) plus a bias bit above it, in
len(pool) // 8 + 1 bytes (6 at n=6 t=3).  Accepting a member adds one
precomputed int, and the node is canonical iff every lane still has its
bias bit set.  The root has all n! lanes; the walk drops most of them
level by level.  Before a node's first child of smaller size than its
last member, every candidate of that size or more is decided.  A lane
above its bias then stays above: the family beats its image at a rank
of those sizes, and every later member, and its image, ranks below all
of them.  So only the lanes at exactly their bias go on, restarted at
bias: the permutations that fix the family setwise (about 12 of 720 at
n=6 t=3).  enumerate_job forces this walk through a job's prefix, so a
job starts with its prefix's lanes.  A labelled context has no lanes
and no lower levels: every step and the bias are 0, so the same accept
step passes every node and both modes share one walk.

Next to the chosen candidates the walk carries one int of counters
that do not change under relabeling, one byte per lane: per-element
abundance margins 0x80 + 2 freq(e) - m and per-size member counts (T(F)
is the smallest nonempty size, and m is their sum).  Accepting a member
adds its precomputed column, which adds 1 to the margins of its
elements, takes 1 from the others and adds 1 to its size's count.  An
element is abundant iff its margin keeps its top bit, so counts &
KEY_MASK[n], the margins' top bits and the size counts, is all a
verdict reads: T(F), the number of abundant elements and the shape.
``split_counts`` reads the counters, or such a key, back.
``enumerate_job`` hands a visit the bitmask and the counters, or counts
a job's families per key into a tally dict inside the walk, with no
call per family: a campaign checks each distinct key once and builds
only failing families.  ``enumerate_families`` hands its visit each
job's E(F) keys as one run of 8-byte ints, in the walk's preorder like
every per-family stream the search hands out, and builds no family; a
listing sorts them once, after the last job.

A family's key is the bitset E(F) = sum(2^(2^n - 1 - m)) over its
members m.  As every family holds M_n, keys in descending order list
the member tuples in ascending order, as a listing prints them.  The
search keeps a different representative per orbit than the public
canonical_form, the image of largest E: node_family and canonical_form
take that maximum over a precomputed (2^n, n!) table of uint64 lanes,
one per permutation, and decode it.  enumerate_families walks the
campaign's jobs, and _job_keys keeps those lanes per depth, seeded
with {}, M_n and the job's prefix: a node's lanes are its parent's OR
the row of its last member, written into the next row of a block of
64, whose keys, its rows' maxima, are taken in one call when it fills.
So a class costs one vector OR and 1/64 of a max; a labelled listing
keeps the identity's lane alone, E itself.  64-bit lanes hold E while
2^n <= 64, so canonical forms stop at n = 6.

numpy is imported by listings, which build the table before the pool
forks, so workers inherit both, and by the oracle and canonical forms;
import ucf, the search context, enumerate_job and campaigns run without it.
"""

from __future__ import annotations

import itertools
from contextlib import ExitStack
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .core import (
    MAX_GROUND_SIZE,
    MIN_GROUND_SIZE,
    Mask,
    SetFamily,
    full_mask,
)
from .errors import InfeasibleScale, PreconditionViolation

if TYPE_CHECKING:  # imported where a listing runs, not with ucf, whose import time it would add to
    from array import array

MAX_ENUM_GROUND = 6
BRUTE_FORCE_POOL_CAP = 22
# rows of a listing job's lanes whose keys _job_keys takes at once
_KEY_BLOCK = 64

# visit(keys): one job's E(F) keys (see the module docstring), in preorder, in an array('Q')
Visit = Callable[["array"], None]
# visit(present, counts): bit p of present is set iff the family holds
# pool[p]; counts packs its counters, see split_counts
CounterVisit = Callable[[int, int], None]
# a packed orbit test, see _orbit: (lanes, per-member steps, bias bits)
_Orbit = tuple[tuple[int, ...], tuple[int, ...], int]


@dataclass(frozen=True)
class EnumerationConstraints:
    """What to enumerate: union-closed families over {1..n} that hold {}
    and M_n, with nonempty members of size >= t, one per orbit if up_to_iso.

    n > MAX_ENUM_GROUND raises InfeasibleScale.  require_universe must be
    True; it stays a field because asdict() writes it into report bodies
    and checkpoint headers, and because bench/ (workloads.py and run.py's
    set-up code) passes up_to_iso after it by position; no other caller does.
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
    images, so this is their sum) it gives E of the family's image under
    each permutation; images have equally many members, so the largest
    is the canonical representative's.  Exact while 2^n <= 64.
    """
    import numpy as np

    images = np.array(_images(n), dtype=np.uint64)
    return np.uint64(1) << images[full_mask(n) ^ np.arange(1 << n)]


def canonical_form(family: SetFamily) -> SetFamily:
    """The family relabeled to the representative of its orbit with the
    lexicographically least member tuple; two families share it iff
    they are relabel-isomorphic, so it serves as their canonical key.

    Supported for n <= MAX_ENUM_GROUND (6); larger n raises
    InfeasibleScale.
    """
    n = family.n
    if n > MAX_ENUM_GROUND:
        raise InfeasibleScale(f"canonical keys need an S_n scan; supported for n <= {MAX_ENUM_GROUND}")
    import numpy as np

    lanes = np.bitwise_or.reduce(_comp_powers(n)[list(family.members)], axis=0)
    key, full = lanes.item(lanes.argmax()), full_mask(n)
    return SetFamily(n, tuple(full - b for b in range(full, -1, -1) if key >> b & 1))


@lru_cache(maxsize=None)
def _orbit(n: int, pool: tuple[Mask, ...], lanes: tuple[int, ...]) -> _Orbit:
    """The packed orbit test over the permutations lanes (indices into
    _perms(n)): (lanes, per-member increments, bias bits).

    Lane i is w bits wide with w > len(pool), so it holds enc(identity)
    - enc(perms[lanes[i]]) + 2^(w-1) without overflow; the increment for
    member m is 2^rank(m) - 2^rank(perms[lanes[i]](m)) in every lane, with
    rank(m) = len(pool) - 1 - position of m.
    """
    lane_bytes = len(pool) // 8 + 1
    ones = int.from_bytes((b"\x01" + bytes(lane_bytes - 1)) * len(lanes), "little")
    images = _images(n)
    top = len(pool) - 1
    power = [b""] * (1 << n)  # by mask: a list reads faster than a dict
    for i, m in enumerate(pool):
        power[m] = (1 << top - i).to_bytes(lane_bytes, "little")
    rows = [images[m] for m in pool]
    if len(lanes) < len(images[0]):  # a stabilizer's lanes
        rows = [[row[j] for j in lanes] for row in rows]
    steps = tuple(
        (ones << top - i) - int.from_bytes(b"".join([power[k] for k in row]), "little")
        for i, row in enumerate(rows)
    )
    return lanes, steps, ones << (8 * lane_bytes - 1)


def _member_counts(mask: Mask, n: int) -> int:
    """The column a member mask adds to the packed counters (see
    split_counts): 1 to the margins of its elements, -1 to the others'
    and 1 to its size's count."""
    lanes = [0] * (n + 1)
    lanes[mask.bit_count()] = 1
    margins = sum((1 if mask >> b & 1 else -1) << 8 * b for b in range(n))
    return (int.from_bytes(bytes(lanes), "little") << 8 * n) + margins


def _family_counts(masks: Sequence[Mask], n: int) -> int:
    """The packed counters of the family of masks: bias plus columns."""
    return _HIGH[n] + sum(_member_counts(m, n) for m in masks)


# the top bit of each of the n margin bytes, per n: the margins' bias
_HIGH = tuple(int.from_bytes(b"\x80" * n, "little") for n in range(MAX_ENUM_GROUND + 1))
# the bits of the counters a verdict reads, per n: the margins' top bits
# and the size counts; the margins' low bits are dropped
KEY_MASK = tuple(high | ((1 << 8 * (n + 1)) - 1) << 8 * n for n, high in enumerate(_HIGH))


def split_counts(n: int, counts: int) -> tuple[int, int, int, int, int]:
    """(m, freq, levels, t, a) from the packed counters of a family over M_n.

    counts holds one byte per lane: byte e-1 holds the abundance margin
    0x80 + 2 freq(e) - m of element e and byte n+k the members of size k,
    so m is the sum of bytes n..2n.  freq and levels keep their lanes
    (byte e-1, byte k), t is T(F), the smallest k >= 1 with a member of
    size k, or 0 without a nonempty member, and a counts the abundant
    elements, those in at least half of the m members, whose margins keep
    their top bit.  A family over M_n has at most 2^n <= 64 members for
    enumerable n, so every margin stays in 0x40..0xC0.  On a key, counts &
    KEY_MASK[n], m, levels, t and a are the counters' own.
    """
    lane = 8 * n
    margins = counts & ((1 << lane) - 1)
    levels = counts >> lane
    m = sum(levels.to_bytes(n + 1, "little"))
    above = levels >> 8
    high = _HIGH[n]
    freq = (margins - high + m * (high >> 7)) >> 1
    return m, freq, levels, ((above & -above).bit_length() + 7) >> 3, (margins & high).bit_count()


@dataclass
class _Search:
    """Precomputed search tables for one EnumerationConstraints."""

    n: int
    pool: tuple[Mask, ...]
    # groups[p]: (2^u, ~qs) pairs, qs the later candidates whose union with
    # pool[p] is the strict superset pool[u]; ANDing the ~qs of the absent u gives p's closure mask
    groups: tuple[tuple[tuple[int, int], ...], ...]
    # cols[p]: pool[p]'s counter column; base: the counters of the family
    # with no candidate chosen, so a node's counters are base plus its columns
    cols: tuple[int, ...]
    base: int
    # the root's orbit test (see _orbit): no lanes, every step 0 and no
    # bias in a labelled context, so every node passes
    orbit: _Orbit
    # lower[p]: the candidates of smaller size than pool[p], where the
    # walk keeps only the stabilizer's lanes; all 0 in a labelled context
    lower: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.pool)


@lru_cache(maxsize=64)
def _search_context(c: EnumerationConstraints) -> _Search:
    n = c.n
    full = full_mask(n)
    pool = tuple(m for m in range(full - 1, 0, -1) if c.t <= m.bit_count())
    lower = (0,) * len(pool)
    orbit: _Orbit = ((), (0,) * len(pool), 0)
    if c.up_to_iso:
        # size-major: a stable sort keeps each size's masks descending
        pool = tuple(sorted(pool, key=int.bit_count, reverse=True))
        # the candidates of size k or more come first, and there are first[k] of them
        first = [sum(m.bit_count() >= k for m in pool) for k in range(n + 1)]
        lower = tuple((1 << len(pool)) - (1 << first[m.bit_count()]) for m in pool)
        orbit = _orbit(n, pool, tuple(range(len(_perms(n)))))
    pos = {mask: i for i, mask in enumerate(pool)}
    groups = []
    for p, a in enumerate(pool):
        # in either order a union with a later candidate is a itself or an
        # earlier candidate; a forced M_n is not in pos and constrains nothing
        by_union: dict[int, int] = {}
        for q in range(p + 1, len(pool)):
            u = pos.get(a | pool[q], p)
            if u != p:
                by_union[u] = by_union.get(u, 0) | 1 << q
        groups.append(tuple((1 << u, ~qs) for u, qs in by_union.items()))
    return _Search(
        n=n,
        pool=pool,
        groups=tuple(groups),
        cols=tuple(_member_counts(m, n) for m in pool),
        base=_family_counts((0, full), n),
        orbit=orbit,
        lower=lower,
    )


def node_family(c: EnumerationConstraints, present: int) -> SetFamily:
    """The family behind a counter visit's bitmask of chosen pool positions,
    the one whose key enumerate_families hands out."""
    pool = _search_context(c).pool
    members = [pool[p] for p in range(present.bit_length()) if present >> p & 1]
    family = SetFamily(c.n, tuple(sorted([0, full_mask(c.n), *members])))
    if c.up_to_iso:
        return canonical_form(family)
    return family


def _stabilizer(ctx: _Search, orbit: _Orbit, enc: int) -> _Orbit:
    """The orbit test kept below a level: the lanes of enc at exactly their
    bias, the permutations that fix the chosen family, restarted at bias."""
    lanes, _, high = orbit
    width = ctx.size // 8 + 1  # bytes per lane
    # a lane minus 1 keeps its bias bit iff the lane is ahead of its bias
    ahead = (enc - (high >> (8 * width - 1))) & high
    at_bias = (ahead ^ high).to_bytes(len(lanes) * width, "little")[width - 1 :: width]
    return _orbit(ctx.n, ctx.pool, tuple(itertools.compress(lanes, at_bias)))


def _walk(ctx: _Search, visit: CounterVisit | None, viable: int, prefix: int = 0, tally: dict | None = None) -> int:
    """Count the nodes of the walk over the viable candidates, handing visit
    each node's bitmask of chosen positions and packed counters in preorder.

    prefix: a job's candidates, chosen in a flat loop before the recursion
    starts at the job's root; the nodes on the way are not visited or
    counted, and the walk is empty where one of them fails.  A child with
    no viable candidate after it is a leaf, visited and counted in its
    parent's loop without a call of its own.  tally, a dict, gets 1 added
    at counts & KEY_MASK[n] for every node counted."""
    cols, lowers, groups, size = ctx.cols, ctx.lower, ctx.groups, ctx.size
    key_mask = KEY_MASK[ctx.n]
    cache = any(lowers)  # a labelled context adds members of every size between two nodes

    present, enc, counts, orbit, lower = 0, ctx.orbit[2], ctx.base, ctx.orbit, 0
    for p in [i for i in range(prefix.bit_length()) if prefix >> i & 1]:
        low = 1 << p
        if not viable & low:
            return 0
        if low & lower:
            orbit = _stabilizer(ctx, orbit, enc)
            enc, lower = orbit[2], 0
        enc += orbit[1][p]
        if enc & orbit[2] != orbit[2]:
            return 0
        viable = viable >> (p + 1) << (p + 1)
        for bit, nq in groups[p]:
            if not present & bit:
                viable &= nq
        present, counts, lower = present | low, counts + cols[p], lowers[p]

    # lower: ctx.lower of the last member, 0 at the root; masks[p]: p's closure mask, kept from the last switch
    def node(present: int, viable: int, enc: int, counts: int, orbit: _Orbit, lower: int, masks: list) -> int:
        # every node is a complete family: unions of accepted masks are
        # earlier candidates, hence already decided and present
        if visit is not None:
            visit(present, counts)
        if tally is not None:
            key = counts & key_mask
            tally[key] = tally.get(key, 0) + 1
        count = 1
        rem = viable
        _, steps, high = orbit
        while rem:
            low = rem & -rem
            p = low.bit_length() - 1
            rem ^= low
            if low & lower:
                # the first child below the last member's size: see the module docstring
                orbit = _stabilizer(ctx, orbit, enc)
                _, steps, high = orbit
                enc, lower, masks = high, 0, [None] * size
            enc2 = enc + steps[p]
            if enc2 & high != high:
                continue
            mask = masks[p]
            if mask is None:
                # drop the later candidates whose union with pool[p] is absent
                mask = -1
                for bit, nq in groups[p]:
                    if not present & bit:
                        mask &= nq
                if cache:
                    masks[p] = mask
            after = rem & mask  # rem holds exactly the viable candidates after p
            if after:
                count += node(present | low, after, enc2, counts + cols[p], orbit, lowers[p], masks)
            else:
                if visit is not None:
                    visit(present | low, counts + cols[p])
                if tally is not None:
                    key = counts + cols[p] & key_mask
                    tally[key] = tally.get(key, 0) + 1
                count += 1
        return count

    try:
        return node(present, viable, enc, counts, orbit, lower, [None] * size)
    finally:
        # node's recursion makes it a reference cycle: break it, so the visit and its
        # state (a listing job's keys) go with the walk, not at the next cyclic collection
        del node


def enumerate_families(
    c: EnumerationConstraints,
    visit: Visit,
    *,
    unbounded: bool = False,
    workers: int = 1,
) -> int:
    """Hand visit each job's _job_keys run, the keys E(F) of its families
    F satisfying c (up_to_iso: of their canonical_form) in the walk's
    preorder, in subtree_jobs order, so the stream is the same for any
    workers >= 1; more than one runs the jobs on a pool (see map_jobs),
    whose workers inherit the key table, built first.  Return the count.
    """
    if workers < 1:
        raise PreconditionViolation(f"workers must be at least 1, got {workers}")
    ensure_enumerable(c, unbounded)
    _comp_powers(c.n)
    count = 0
    with ExitStack() as stack:
        for keys in map_jobs(stack, _job_keys, [(c, job) for job in subtree_jobs(c)], workers):
            count += len(keys)
            visit(keys)
    return count


def candidate_order(c: EnumerationConstraints) -> str:
    """The name of the walk's candidate order, which gives job ids their
    meaning: "levels" (size-major) up to isomorphism, else "desc"."""
    return "levels" if c.up_to_iso else "desc"


def job_depth(c: EnumerationConstraints) -> int:
    """How many leading candidate decisions define one work unit.

    Up-to-iso campaigns split deeper: canonicity prunes most prefixes,
    so the extra jobs are mostly empty ones, which subtree_jobs drops.
    A checkpoint's header names the depth, and it resumes only at it.
    """
    return max(0, min(16 if c.up_to_iso else 10, _search_context(c).size - 6))


def subtree_jobs(c: EnumerationConstraints) -> list[int]:
    """The nonempty job ids, increasing.

    Job j fixes candidate i < job_depth(c) as chosen iff bit i of j is
    set.  Every accepted prefix is itself a family, so a job is nonempty
    iff its prefix is a node of the walk: these are the ids of the nodes
    of the walk over the first job_depth(c) candidates alone.
    """
    jobs: list[int] = []
    _walk(_search_context(c), lambda present, counts: jobs.append(present), (1 << job_depth(c)) - 1)
    return sorted(jobs)


def enumerate_job(
    c: EnumerationConstraints, job: int, visit: CounterVisit | None = None, tally: dict | None = None
) -> int:
    """Enumerate one subtree, job < 2^job_depth(c); summing over
    subtree_jobs(c) equals the full count.

    A job is the walk through its prefix, the candidates i < job_depth(c)
    with bit i of job set, chosen before the recursion; the others below
    the depth are never viable.  So an invalid prefix costs nothing, no
    family is visited by two jobs, and the visit gets each family's
    bitmask of chosen positions and packed counters in the walk's order,
    building no family (node_family builds one).  A tally dict counts the
    job's families per verdict key, counts & KEY_MASK[n], inside the walk,
    with no call per family.  run_campaign applies the census-scale
    guard, ensure_enumerable, once, before its first job.
    """
    ctx = _search_context(c)
    return _walk(ctx, visit, (1 << ctx.size) - (1 << job_depth(c)) | job, job, tally)


def _job_keys(payload: tuple) -> array:
    """The keys of enumerate_job(c, job)'s families, E(node_family(c,
    present)), in the walk's preorder in one array('Q'), 8 bytes a key
    that pickle as one buffer; payload is (c, job).

    A key is the largest lane of a row of _comp_powers(n), the family's E
    under each permutation, or labelled of its first column, the
    identity's.  In preorder, lanes[d - 1] holds a depth-d node's
    parent's row when it is visited.  The job's first visit is its root,
    the node of its prefix, the k set bits of job, at depth k, so depths
    1..k-1 are seeded from the prefix; depth 0 holds {} and M_n.
    Positions are chosen ascending: present's bit count is the depth, its
    top bit the last member.  A node's row is OR-ed into the next row of
    a block of _KEY_BLOCK rows, and a full block hands out all its keys,
    its rows' maxima, at once; the rows of the last node's path, depths
    0..d, are first copied into fixed per-depth rows, so its descendants
    still read them once the block is reused.
    """
    from array import array

    import numpy as np

    c, job = payload
    ctx, full = _search_context(c), full_mask(c.n)
    powers = _comp_powers(c.n) if c.up_to_iso else _comp_powers(c.n)[:, :1]
    rows, width = [powers[m] for m in ctx.pool], powers.shape[1]
    lanes = [powers[0] | powers[full]] * (ctx.size + 1)  # replaced per depth, never written in place
    for d, p in enumerate([i for i in range(job.bit_length()) if job >> i & 1][:-1], start=1):
        lanes[d] = lanes[d - 1] | rows[p]

    keys = array("Q")
    block = np.empty((_KEY_BLOCK, width), np.uint64)
    slots, path, used = list(block), list(np.empty((ctx.size + 1, width), np.uint64)), 0
    or_ = np.bitwise_or

    def emit(present: int, counts: int) -> None:
        nonlocal used
        d, row = present.bit_count(), slots[used]
        if d:
            or_(lanes[d - 1], rows[present.bit_length() - 1], row)
        else:
            row[:] = lanes[0]
        lanes[d] = row
        used += 1
        if used == len(slots):
            keys.frombytes(block.max(axis=1).tobytes())
            for k in range(d + 1):
                path[k][:] = lanes[k]
                lanes[k] = path[k]
            used = 0

    enumerate_job(c, job, emit)
    keys.frombytes(block[:used].max(axis=1).tobytes())
    return keys


def map_jobs(stack: ExitStack, fn: Callable, payloads: list, workers: int) -> Iterator:
    """fn over payloads, in payload order: in this process for one worker
    or one payload, else on min(workers, len(payloads)) forked processes
    that take len(payloads) // (processes * 8) at a time.  stack shuts
    the pool down, cancelling what has not started; a dead worker raises
    BrokenProcessPool, and on Linux the workers die with this process.
    """
    processes = min(workers, len(payloads))
    if processes <= 1:
        return map(fn, payloads)
    # imported only for a pool: they add about a quarter to the import time of ucf.cli
    import ctypes
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Linux's prctl(PR_SET_PDEATHSIG, SIGKILL): a worker dies with its parent, not waits forever
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    pool = ProcessPoolExecutor(processes, multiprocessing.get_context("fork"), initializer=prctl, initargs=(1, 9))
    stack.callback(pool.shutdown, cancel_futures=True)
    return pool.map(fn, payloads, chunksize=max(1, len(payloads) // (processes * 8)))


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
