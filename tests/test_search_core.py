"""The counters and the packed orbit test of the orderly search, checked
against the plain family functions and a plain permutation scan."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucf
import ucf.enumeration as enumeration
import ucf.verifier as verifier
from oracles import asc_search, asc_walk, relabel_mask
from ucf import (
    CHECK_NAMES,
    EnumerationConstraints,
    NoNonemptyMember,
    NotInScope,
    SetFamily,
    enumerate_families,
    frankl_holds,
    frequency_profile,
    full_mask,
    lemma_1_2_bound,
    level_profile,
    s_frankl_holds,
    t_value,
    union_closure,
)
from ucf.enumeration import _member_counts, enumerate_job, node_family, split_counts, subtree_jobs


def lanes(packed: int, count: int) -> tuple[int, ...]:
    return tuple(packed.to_bytes(count, "little"))


def assert_counters_match(family: SetFamily, counters: tuple[int, int, int, int], relabeled: bool = False) -> None:
    """The walk's counters, and the verdicts the campaign reads from
    them, equal the plain functions on the built family.  A relabeled
    family has its element frequencies permuted."""
    n = family.n
    m, freq, levels, t = counters
    prof = frequency_profile(family)
    assert m == family.m
    if relabeled:
        assert sorted(lanes(freq, n)) == sorted(prof.freq)
    else:
        assert lanes(freq, n) == prof.freq
    assert lanes(levels, n + 1) == level_profile(family)
    try:
        assert t == t_value(family)
    except NoNonemptyMember:
        assert t == 0

    tally = verifier._JobTally(EnumerationConstraints(n, 1), CHECK_NAMES)
    abundant = tally.abundant(m, freq)
    assert abundant == len(prof.abundant)
    if not t:
        return  # no verdict: every family a campaign checks holds M_n
    fails = tally.failing[t][abundant]
    assert ("frankl" not in fails) == frankl_holds(family)
    try:
        assert ("s_frankl" not in fails) == s_frankl_holds(family)
    except NotInScope:
        assert "s_frankl" not in fails
    coatoms = family.members_of_size(n - 1)
    assert lanes(levels, n + 1)[n - 1] == len(coatoms)
    if len(coatoms) >= 2:
        # the identity that lets lemma_1_2_spot pass on the count alone
        bound = lemma_1_2_bound(full_mask(n), SetFamily(n, coatoms))
        assert bound == (len(coatoms) - 1, True)
    assert "lemma_1_2_spot" not in fails


def walk_counters(c: EnumerationConstraints, order: str) -> dict[tuple[int, ...], tuple[int, int, int, int]]:
    """Every family of the walk (asc: the ascending walk of
    tests/oracles.py), keyed by its members, with its counters."""
    out = {}
    if order == "asc":

        def visit(members, counts):
            out[members] = split_counts(c.n, counts)

        count = asc_walk(c, visit)
    else:

        def visit(chosen, counts):
            out[node_family(c, chosen).members] = split_counts(c.n, counts)

        count = sum(enumerate_job(c, job, visit) for job in subtree_jobs(c))
    assert count == len(out)
    return out


@lru_cache(maxsize=None)
def labelled_counters(n: int, t: int) -> dict:
    return walk_counters(EnumerationConstraints(n, t), "desc")


@st.composite
def closed_families(draw):
    """A union-closed family with the empty set and M_n: n = 2..4 with
    any T, or n = 5 with T >= 3."""
    n = draw(st.integers(2, 5))
    t = 1 if n <= 4 else 3
    masks = st.integers(1, full_mask(n)).filter(lambda mask: mask.bit_count() >= t)
    family = union_closure(SetFamily.from_masks(n, draw(st.sets(masks, max_size=6))))
    return t, SetFamily.from_masks(n, family.members + (0, full_mask(n)))


class TestCounters:
    @settings(max_examples=300, deadline=None)
    @given(closed_families())
    def test_counters_match_family_functions(self, drawn):
        t, family = drawn
        assert_counters_match(family, labelled_counters(family.n, t)[family.members])

    def test_edge_families(self):
        # {} alone and a family without M_n, which no walk visits, from
        # their members' counter columns; a T=1 family from the walk
        for family in (SetFamily(4, (0,)), SetFamily.from_masks(4, (0, 3, 5, 7))):
            counts = sum(_member_counts(m, family.n) for m in family.members)
            assert_counters_match(family, split_counts(family.n, counts))
        t1 = SetFamily.from_masks(3, (0, 1, 3, 7))
        assert_counters_match(t1, labelled_counters(3, 1)[t1.members])

    @pytest.mark.parametrize("order", ["desc", "asc"])
    @pytest.mark.parametrize("iso", [False, True])
    # the one value EnumerationConstraints admits, kept as an axis so the
    # case ids read as before require_universe=False was retired
    @pytest.mark.parametrize("universe", [True])
    def test_every_node_of_small_walks(self, order, iso, universe):
        # the search keeps its own orbit representatives, and node_family
        # relabels them to the public canonical ones the ascending walk keeps
        relabeled = iso and order == "desc"
        for n, t in ((3, 1), (4, 1), (4, 2)):
            c = EnumerationConstraints(n, t, universe, iso)
            for members, counters in walk_counters(c, order).items():
                assert_counters_match(SetFamily(n, members), counters, relabeled)

    def test_counter_visit_matches_family_visit(self):
        c = EnumerationConstraints(5, 3, up_to_iso=True)
        families = []
        enumerate_families(c, families.append)
        assert sorted(f.members for f in families) == sorted(walk_counters(c, "desc"))


def plain_canonical(n: int, encoded: list[int]) -> bool:
    """The identity attains the orbit maximum of sum(2^mask)."""
    identity = sum(2**e for e in encoded)
    return all(
        identity >= sum(2 ** relabel_mask(e, perm) for e in encoded)
        for perm in itertools.permutations(range(n))
    )


class TestPackedOrbitTest:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 6), st.sampled_from(["desc", "asc"]), st.data())
    def test_matches_plain_permutation_scan(self, n, order, data):
        # asc: the lanes of the ascending walk of tests/oracles.py
        if order == "desc":
            ctx = enumeration._search_context(EnumerationConstraints(n, 1, True, True))
        else:
            ctx = asc_search(n, 1)
        chosen = sorted(data.draw(st.sets(st.integers(0, len(ctx.pool) - 1), max_size=10)))
        encode = (lambda mask: mask) if order == "desc" else (lambda mask: ctx.full ^ mask)

        def packed(positions) -> bool:
            enc = ctx.high + sum(ctx.steps[p] for p in positions)
            return enc & ctx.high == ctx.high

        encoded = [encode(ctx.pool[p]) for p in chosen]
        assert packed(chosen) == plain_canonical(n, encoded)
        # the orbit maximum of the same member set passes both tests
        best = max(
            itertools.permutations(range(n)),
            key=lambda perm: sum(2 ** relabel_mask(e, perm) for e in encoded),
        )
        pos = {mask: i for i, mask in enumerate(ctx.pool)}
        image = [pos[relabel_mask(ctx.pool[p], best)] for p in chosen]
        assert packed(image)
        assert plain_canonical(n, [encode(ctx.pool[p]) for p in image])

    def test_labelled_context_builds_no_lanes(self, monkeypatch):
        def no_lanes(*args):
            raise AssertionError("a labelled context built orbit lanes")

        monkeypatch.setattr(enumeration, "_orbit_lanes", no_lanes)
        ctx = enumeration._search_context.__wrapped__(EnumerationConstraints(5, 2))
        assert ctx.high == 0
        assert ctx.steps == (0,) * ctx.size


def numpy_loaded(code: str) -> bool:
    """Whether numpy is imported after running code in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(ucf.__file__))
    code += "\nprint('numpy' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()[-1] == "True"


def test_campaigns_run_without_numpy():
    assert not numpy_loaded(
        "import sys, ucf, ucf.cli\n"
        "from ucf import EnumerationConstraints, run_campaign\n"
        "report = run_campaign(EnumerationConstraints(5, 3, up_to_iso=True))\n"
        "assert report.families_total == 119 and not report.counterexamples"
    )


def test_context_and_labelled_listing_run_without_numpy():
    # the search context behind the benchmark's setup time
    assert not numpy_loaded(
        "import sys, ucf.cli\n"
        "from ucf.enumeration import EnumerationConstraints, job_depth\n"
        "assert job_depth(EnumerationConstraints(6, 3, up_to_iso=True)) == 10"
    )
    assert not numpy_loaded(
        "import os, sys, ucf.cli\n"
        "assert ucf.cli.main(['enumerate', '--n', '5', '--t', '3', '--out', os.devnull]) == 0"
    )
    # the canonical relabel of an up-to-iso listing does load it
    assert numpy_loaded(
        "import os, sys, ucf.cli\n"
        "assert ucf.cli.main(['enumerate', '--n', '5', '--t', '3', '--up-to-iso', '--out', os.devnull]) == 0"
    )
