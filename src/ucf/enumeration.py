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
accepting p keeps the candidates after it and drops each group whose u
is absent.  An ascending-order walk, where closure propagates forward as
forced candidates, lives in tests/oracles.py as an independent
cross-check of the counts.

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
frequencies, per-size member counts (T(F) is the smallest nonempty
size) and the member count m.  Accepting a member adds its precomputed
column.  ``split_counts`` reads them back together with T(F) and the
number of abundant elements, the two values every check needs.
``enumerate_job`` hands the visit the counters: a campaign tallies them
and checks each distinct value once, building only failing families;
``enumerate_families`` hands it keys, bytes(members), and builds none.

The search keeps a different representative per orbit than the public
canonical_form, which maximises sum(2^complement(mask)) over the orbit.
node_family and canonical_form find it as the orbit maximum of that
encoding over a precomputed (2^n, n!) table of uint64 lanes, one per
permutation, then relabel through a mask-image table.
enumerate_families walks the campaign's jobs and keeps those lanes per
depth, seeded from the job's prefix: a node's lanes are its parent's
OR the row of its last member, so a class costs one OR and one argmax.
64-bit lanes hold the encoding while 2^n <= 64, so canonical forms
stop at n = 6.  A canonical form is also the canonical key: SetFamily
is frozen, hence hashable, and two families share a form iff they are
isomorphic.

numpy is imported only by the oracle, by canonical_form and by that
relabel (its tables are built on first use, by each pool worker);
counting, counter visits, labelled listings and campaigns run without it.
"""

from __future__ import annotations

import itertools
from contextlib import ExitStack
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .core import (
    MAX_GROUND_SIZE,
    MIN_GROUND_SIZE,
    Mask,
    SetFamily,
    full_mask,
)
from .errors import InfeasibleScale, PreconditionViolation

MAX_ENUM_GROUND = 6
MAX_CANONICAL_GROUND = 6
BRUTE_FORCE_POOL_CAP = 22

# visit(key): key is bytes(members) of one family, members ascending
Visit = Callable[[bytes], None]
# visit(chosen, counts): chosen lists the family's pool positions and is
# the walk's own list (copy it to keep it); counts packs its counters,
# see split_counts
CounterVisit = Callable[[list[int], int], None]
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
    images, so this is their sum) it gives the per-permutation encoding
    whose maximum marks the public canonical representative: a larger
    encoding means a lexicographically smaller ascending member list.
    Exact while 2^n <= 64, hence MAX_CANONICAL_GROUND.
    """
    import numpy as np

    images = np.array(_images(n), dtype=np.uint64)
    return np.uint64(1) << images[full_mask(n) ^ np.arange(1 << n)]


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
    import numpy as np

    # the permutation whose encoding is largest; no member leaves every lane 0
    perm = int(np.bitwise_or.reduce(_comp_powers(n)[list(family.members)], axis=0).argmax())
    images = _images(n)
    return SetFamily(n, tuple(sorted(images[m][perm] for m in family.members)))


@lru_cache(maxsize=32)
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
    """The packed counters (see split_counts) of the family {mask}."""
    lanes = [mask >> b & 1 for b in range(n)] + [0] * (n + 1) + [1]
    lanes[n + mask.bit_count()] = 1
    return int.from_bytes(bytes(lanes), "little")


# the top bit of each of the n frequency bytes, per n
_HIGH = tuple(int.from_bytes(b"\x80" * n, "little") for n in range(MAX_ENUM_GROUND + 1))


def split_counts(n: int, counts: int) -> tuple[int, int, int, int, int]:
    """(m, freq, levels, t, a) from the packed counters of a family over M_n.

    counts holds one byte per lane: byte e-1 counts the members holding
    element e, byte n+k the members of size k, and the bytes from 2n+1
    on hold the member count m.  freq and levels keep their lanes (byte
    e-1, byte k), t is T(F), the smallest k >= 1 with a member of size
    k, or 0 without a nonempty member, and a counts the abundant
    elements, those in at least half of the m members.  A family over
    M_n has at most 2^n <= 64 members for enumerable n, so no lane
    overflows.
    """
    lane = 8 * n
    m = counts >> (2 * lane + 8)
    freq = counts & ((1 << lane) - 1)
    levels = counts >> lane & ((1 << (lane + 8)) - 1)
    above = levels >> 8
    high = _HIGH[n]
    # byte e-1 becomes 0x80 + 2*freq(e) - m, which keeps its top bit iff
    # element e is abundant; m <= 64 keeps every byte in 0x40..0xC0
    a = (((freq << 1) + high - m * (high >> 7)) & high).bit_count()
    return m, freq, levels, ((above & -above).bit_length() + 7) >> 3, a


@dataclass
class _Search:
    """Precomputed search tables for one EnumerationConstraints."""

    n: int
    pool: tuple[Mask, ...]
    # groups[p]: (u, qs) pairs, qs the later candidates whose union with
    # pool[p] is the strict superset pool[u] (an earlier candidate)
    groups: tuple[tuple[tuple[int, int], ...], ...]
    # cols[p]: packed counters of {pool[p]}; base: of the family with no
    # candidate chosen, so a node's counters are base plus its columns
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
        groups.append(tuple(by_union.items()))
    return _Search(
        n=n,
        pool=pool,
        groups=tuple(groups),
        cols=tuple(_member_counts(m, n) for m in pool),
        base=_member_counts(0, n) + _member_counts(full, n),
        orbit=orbit,
        lower=lower,
    )


def node_family(c: EnumerationConstraints, chosen: Sequence[int]) -> SetFamily:
    """The family behind a counter visit's chosen positions, the one whose
    key enumerate_families hands out."""
    ctx = _search_context(c)
    family = SetFamily(c.n, tuple(sorted([0, full_mask(c.n), *[ctx.pool[p] for p in chosen]])))
    if c.up_to_iso:
        return canonical_form(family)
    return family


def _key_emit(c: EnumerationConstraints, job: int, visit: Visit) -> CounterVisit:
    """A counter visit for enumerate_job(c, job) that hands visit each
    node's key, bytes(node_family(c, chosen).members).

    In preorder, lanes[d - 1] holds a depth-d node's parent's complement
    encodings when it is visited.  The job's first visit is its root, the
    node of its prefix, the k set bits of job, at depth k, so
    lanes[1..k-1] are seeded from the prefix; lanes[0], all 0, is the
    root's and keeps the identity.
    """
    ctx = _search_context(c)
    pool, full = ctx.pool, full_mask(c.n)
    if not c.up_to_iso:
        # the pool descends and chosen ascends, so the members come out ascending
        return lambda chosen, counts: visit(bytes([0, *[pool[p] for p in reversed(chosen)], full]))
    import numpy as np

    powers, images = _comp_powers(c.n), _images(c.n)
    rows = [powers[m] for m in pool]
    image_rows = [images[m] for m in pool]
    lanes = [np.zeros(powers.shape[1], dtype=np.uint64) for _ in range(ctx.size + 1)]
    prefix = [i for i in range(job.bit_length()) if job >> i & 1]
    for d, p in enumerate(prefix[:-1], start=1):
        np.bitwise_or(lanes[d - 1], rows[p], out=lanes[d])

    def emit(chosen: list[int], counts: int) -> None:
        d = len(chosen)
        if d:
            np.bitwise_or(lanes[d - 1], rows[chosen[-1]], out=lanes[d])
        perm = int(lanes[d].argmax())
        visit(bytes(sorted([0, full, *[image_rows[p][perm] for p in chosen]])))

    return emit


def _stabilizer(ctx: _Search, orbit: _Orbit, enc: int) -> _Orbit:
    """The orbit test kept below a level: the lanes of enc at exactly their
    bias, the permutations that fix the chosen family, restarted at bias."""
    lanes, _, high = orbit
    width = ctx.size // 8 + 1  # bytes per lane
    # a lane minus 1 keeps its bias bit iff the lane is ahead of its bias
    ahead = (enc - (high >> (8 * width - 1))) & high
    at_bias = (ahead ^ high).to_bytes(len(lanes) * width, "little")[width - 1 :: width]
    return _orbit(ctx.n, ctx.pool, tuple(itertools.compress(lanes, at_bias)))


def _walk(ctx: _Search, visit: CounterVisit | None, viable: int, prefix: int = 0) -> int:
    """Count the nodes of the walk over the viable candidates, handing visit
    each node's chosen positions and packed counters in preorder.

    prefix: a job's candidates, which the walk is forced through; a node
    with one of them not yet chosen lies on the way to the job's root: not
    visited or counted, its only child the next."""
    cols, lowers, groups = ctx.cols, ctx.lower, ctx.groups
    chosen: list[int] = []

    # lower: ctx.lower of the last member, 0 at the root
    def node(present: int, viable: int, enc: int, counts: int, orbit: _Orbit, lower: int, prefix: int) -> int:
        if prefix:
            count = 0
            rem = prefix & -prefix & viable
        else:
            # every node is a complete family: unions of accepted masks are
            # earlier candidates, hence already decided and present
            if visit is not None:
                visit(chosen, counts)
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
                enc, lower = high, 0
            enc2 = enc + steps[p]
            if enc2 & high != high:
                continue
            # the viable candidates after p, less those whose union with pool[p] is absent
            after = viable >> (p + 1) << (p + 1)
            for u, qs in groups[p]:
                if not present >> u & 1:
                    after &= ~qs
            chosen.append(p)
            count += node(present | low, after, enc2, counts + cols[p], orbit, lowers[p], prefix and prefix ^ low)
            chosen.pop()
        return count

    return node(0, viable, ctx.orbit[2], ctx.base, ctx.orbit, 0, prefix)


def enumerate_families(
    c: EnumerationConstraints,
    visit: Visit | None = None,
    *,
    unbounded: bool = False,
    workers: int = 1,
) -> int:
    """Hand visit the key, bytes(members), of every family satisfying c,
    in up_to_iso mode of its orbit's canonical_form; return the count.

    Keys arrive job by job in subtree_jobs order, each job's sorted, so
    the stream is the same for any workers >= 1; more than one runs the
    jobs on a pool (see map_jobs).  Without a visit, one serial walk counts.
    """
    if workers < 1:
        raise PreconditionViolation(f"workers must be at least 1, got {workers}")
    ensure_enumerable(c, unbounded)
    if visit is None:
        ctx = _search_context(c)
        return _walk(ctx, None, (1 << ctx.size) - 1)
    count = 0
    with ExitStack() as stack:
        for keys in map_jobs(stack, _job_keys, [(c, job) for job in subtree_jobs(c)], workers):
            count += len(keys)
            for key in keys:
                visit(key)
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
    _walk(_search_context(c), lambda chosen, counts: jobs.append(sum(1 << p for p in chosen)), (1 << job_depth(c)) - 1)
    return sorted(jobs)


def enumerate_job(c: EnumerationConstraints, job: int, visit: CounterVisit | None = None) -> int:
    """Enumerate one subtree, job < 2^job_depth(c); summing over
    subtree_jobs(c) equals the full count.

    A job is the walk from the root forced through its prefix, the
    candidates i < job_depth(c) with bit i of job set; the others below
    the depth are never viable.  So an invalid prefix costs nothing, no
    family is visited by two jobs, and the visit gets each family's chosen
    positions and packed counters in the walk's order, building no family
    (node_family builds one).  run_campaign applies the census-scale
    guard, ensure_enumerable, once, before its first job.
    """
    ctx = _search_context(c)
    return _walk(ctx, visit, (1 << ctx.size) - (1 << job_depth(c)) | job, job)


def _job_keys(payload: tuple) -> list[bytes]:
    """The sorted keys of one job's families; payload is (c, job)."""
    c, job = payload
    keys: list[bytes] = []
    enumerate_job(c, job, _key_emit(c, job, keys.append))
    keys.sort()
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
