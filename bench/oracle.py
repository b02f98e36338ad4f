"""Inputs and an independent oracle for the ``diagnose`` workload.

Families are generated from the benchmark seed as family-file text.
The oracle recomputes the fields of ``ucf check --json`` that carry the
verdict from frozensets of 1-based labels.  It builds the closure as
the set of all unions of subsets of the members, where ucf iterates
pairwise unions to a fixed point on bitmasks, so the two share no code
and no method.
"""

from __future__ import annotations

import random

N_RANGE = (4, 10)
EXTRA_MEMBERS = (2, 10)


def _is_union_closed(sets_: set[frozenset[int]]) -> bool:
    return all(a | b in sets_ for a in sets_ for b in sets_)


def generate(seed: int, count: int) -> list[str]:
    """``count`` family files: ``{}`` plus 2..10 random nonempty members
    over n in 4..10, none of them union-closed."""
    rng = random.Random(seed)
    texts = []
    while len(texts) < count:
        n = rng.randint(*N_RANGE)
        k = rng.randint(*EXTRA_MEMBERS)
        members = set()
        while len(members) < k:
            mask = rng.randrange(1, 1 << n)
            members.add(frozenset(e for e in range(1, n + 1) if mask >> (e - 1) & 1))
        members = list(members)
        if _is_union_closed(set(members)):
            continue
        members.append(frozenset())
        rng.shuffle(members)
        lines = [f"n={n}"] + [",".join(map(str, sorted(s))) if s else "{}" for s in members]
        texts.append("\n".join(lines) + "\n")
    return texts


def _parse(text: str) -> tuple[int, list[frozenset[int]]]:
    lines = text.split("\n")
    n = int(lines[0][2:])
    members = [frozenset() if line == "{}" else frozenset(map(int, line.split(","))) for line in lines[1:] if line]
    return n, members


def expected(text: str) -> tuple:
    """(was_union_closed, t, freq, m, abundant, verdict) of one family
    file, in the order ``key`` reads them from a ``to_dict`` record."""
    n, members = _parse(text)
    closed = {frozenset()}
    for s in members:
        closed |= {c | s for c in closed}
    nonempty = [s for s in closed if s]
    t = min(len(s) for s in nonempty) if nonempty else None
    m = len(closed)
    freq = tuple(sum(1 for s in closed if e in s) for e in range(1, n + 1))
    abundant = tuple(e for e in range(1, n + 1) if 2 * freq[e - 1] >= m)
    if t is None:
        verdict = "not-applicable"
    elif not abundant or (t >= 2 and len(abundant) < t):
        verdict = "fail"
    else:
        verdict = "pass"
    return (closed == set(members), t, freq, m, abundant, verdict)


def key(record: dict) -> tuple:
    """The oracle's fields, read from a ``CheckRecord.to_dict()`` result."""
    return (
        record["was_union_closed"],
        record["t"],
        tuple(record["freq"]),
        record["m"],
        tuple(record["abundant"]),
        record["verdict"],
    )
