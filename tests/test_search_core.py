"""The counters and the packed orbit test of the orderly search, checked
against the plain family functions and a plain permutation scan."""

from __future__ import annotations

import dataclasses
import hashlib
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


def assert_counters_match(family: SetFamily, counters: tuple[int, int, int, int, int], relabeled: bool = False) -> None:
    """The walk's counters, and the verdicts the campaign reads from
    them, equal the plain functions on the built family.  A relabeled
    family has its element frequencies permuted."""
    n = family.n
    m, freq, levels, t, abundant = counters
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

    assert abundant == len(prof.abundant)
    if not t:
        return  # no verdict: every family a campaign checks holds M_n
    fails = verifier._failing(n, CHECK_NAMES)[t][abundant]
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


def walk_counters(c: EnumerationConstraints, order: str) -> dict[tuple[int, ...], tuple[int, int, int, int, int]]:
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
        enumerate_families(c, lambda key: families.append(SetFamily(c.n, tuple(key))))
        assert sorted(f.members for f in families) == sorted(walk_counters(c, "desc"))


def plain_canonical(n: int, members: list[int], encode) -> bool:
    """The identity attains the orbit maximum of sum(2^encode(mask))."""
    identity = sum(2 ** encode(m) for m in members)
    return all(
        identity >= sum(2 ** encode(relabel_mask(m, perm)) for m in members)
        for perm in itertools.permutations(range(n))
    )


def node_stream(c: EnumerationConstraints) -> tuple[list[int], list[tuple[bytes, int]]]:
    """The nonempty job ids, and every (chosen, counts) the jobs visit in
    job order."""
    nodes: list[tuple[bytes, int]] = []
    jobs = subtree_jobs(c)
    for job in jobs:
        enumerate_job(c, job, lambda chosen, counts: nodes.append((bytes(chosen), counts)))
    return jobs, nodes


class TestPackedOrbitTest:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(4, 6), st.integers(1, 3), st.sampled_from(["desc", "asc"]), st.data())
    def test_matches_plain_permutation_scan(self, n, t, order, data):
        # desc: the rank-encoded lanes of the search, rank being the
        # size-major order (|mask|, mask), so ranks differ from masks.
        # asc: the mask-encoded lanes of the ascending walk of tests/oracles.py
        if order == "desc":
            ctx = enumeration._search_context(EnumerationConstraints(n, t, up_to_iso=True))
            _, steps, high = ctx.orbit
            encode = {mask: len(ctx.pool) - 1 - i for i, mask in enumerate(ctx.pool)}.__getitem__
        else:
            ctx = asc_search(n, t)
            steps, high = ctx.steps, ctx.high
            encode = lambda mask: ctx.full ^ mask  # noqa: E731
        chosen = sorted(data.draw(st.sets(st.integers(0, len(ctx.pool) - 1), max_size=10)))

        def packed(positions) -> bool:
            enc = high + sum(steps[p] for p in positions)
            return enc & high == high

        members = [ctx.pool[p] for p in chosen]
        assert packed(chosen) == plain_canonical(n, members, encode)
        # the orbit maximum of the same member set passes both tests
        best = max(
            itertools.permutations(range(n)),
            key=lambda perm: sum(2 ** encode(relabel_mask(m, perm)) for m in members),
        )
        pos = {mask: i for i, mask in enumerate(ctx.pool)}
        image = [pos[relabel_mask(m, best)] for m in members]
        assert packed(image)
        assert plain_canonical(n, [ctx.pool[p] for p in image], encode)

    def test_lanes_are_one_bit_wider_than_the_pool_in_whole_bytes(self):
        # 41 candidates at t=3 fit 6-byte lanes, 57 at t=2 fit 8-byte lanes
        for t, lane_bits in ((3, 48), (2, 64)):
            ctx = enumeration._search_context(EnumerationConstraints(6, t, up_to_iso=True))
            assert ctx.orbit[2].bit_length() == 720 * lane_bits

    @pytest.mark.parametrize("n, t", [(4, 1), (4, 2), (5, 1), (5, 2), (5, 3), (6, 4)])
    def test_rank_lanes_visit_the_mask_lanes_nodes(self, monkeypatch, n, t):
        # the rank lanes cut to the stabilizer's below each level visit the
        # same jobs, and the same nodes in the same order, as all n! lanes
        # kept to the end; a context with no lower levels never switches
        c = EnumerationConstraints(n, t, up_to_iso=True)
        switching = enumeration._search_context(c)
        stabilizer = enumeration._stabilizer
        switches = []

        def counted(*args):
            switches.append(args)
            return stabilizer(*args)

        monkeypatch.setattr(enumeration, "_stabilizer", counted)
        expected = node_stream(c)
        switched = len(switches)
        assert switched
        full = dataclasses.replace(switching, lower=(0,) * switching.size)
        monkeypatch.setattr(enumeration, "_search_context", lambda constraints: full)
        assert node_stream(c) == expected
        assert len(switches) == switched

    @pytest.mark.parametrize("n, t", [(4, 1), (4, 2), (5, 1), (5, 2), (5, 3), (6, 4)])
    def test_switches_keep_the_stabilizer_lanes(self, monkeypatch, n, t):
        # at every switch of one serial walk (job 0 with job_depth set to
        # 0, whose one chosen list is the switching node's), the lanes kept
        # are exactly the permutations that map the chosen family onto itself
        c = EnumerationConstraints(n, t, up_to_iso=True)
        pool = enumeration._search_context(c).pool
        perms = list(itertools.permutations(range(n)))
        image = {(m, i): relabel_mask(m, perm) for m in pool for i, perm in enumerate(perms)}
        stabilizer = enumeration._stabilizer
        walk: list[list[int]] = []
        switches = []

        def recorded(*args):
            orbit = stabilizer(*args)
            switches.append((tuple(walk[0]), orbit[0]))
            return orbit

        monkeypatch.setattr(enumeration, "_stabilizer", recorded)
        monkeypatch.setattr(enumeration, "job_depth", lambda c: 0)
        enumerate_job(c, 0, lambda chosen, counts: walk or walk.append(chosen))
        assert switches
        for chosen, kept in switches:
            family = {pool[p] for p in chosen}
            assert kept == tuple(i for i in range(len(perms)) if {image[m, i] for m in family} == family), chosen

    def test_labelled_context_builds_no_lanes(self, monkeypatch):
        def no_lanes(*args):
            raise AssertionError("a labelled context built orbit lanes")

        monkeypatch.setattr(enumeration, "_orbit", no_lanes)
        monkeypatch.setattr(enumeration, "_stabilizer", no_lanes)
        c = EnumerationConstraints(5, 2)
        ctx = enumeration._search_context.__wrapped__(c)
        assert ctx.orbit == ((), (0,) * ctx.size, 0)
        assert ctx.lower == (0,) * ctx.size
        monkeypatch.setattr(enumeration, "_search_context", lambda constraints: ctx)
        assert enumerate_families(c) == 241805


def test_walk_visit_stream_is_pinned():
    # every job's id and count and each (chosen, counts) it visits, in job
    # order, as recorded before the walk took its one entry, _walk: n=2..5
    # at every t in both modes but labelled n=5 t=1 (1,373,701 more visits,
    # over 2 s more), n=6 t=3..6 up to iso and t=4..6 labelled
    configs = [(n, t, iso) for n in range(2, 6) for t in range(1, n + 1) for iso in (False, True)]
    configs.remove((5, 1, False))
    configs += [(6, t, True) for t in range(3, 7)] + [(6, t, False) for t in range(4, 7)]
    digest = hashlib.sha256()
    visits = 0
    for n, t, iso in configs:
        c = EnumerationConstraints(n, t, up_to_iso=iso)
        for job in subtree_jobs(c):
            out: list[bytes] = []
            count = enumerate_job(c, job, lambda chosen, counts: out.append(b"%d %b %d\n" % (len(chosen), bytes(chosen), counts)))
            digest.update(b"%d %d %d %d %d\n" % (n, t, iso, job, count))
            digest.update(b"".join(out))
            visits += len(out)
    assert visits == 794887
    assert digest.hexdigest() == "564e5a95a9335f756f184817feae07c11139ae1384115ed82992ca196b079668"


def fresh_value(code: str, expr: str) -> str:
    """The printed value of expr after running code in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(ucf.__file__))
    code += f"\nprint({expr})\n"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()[-1]


def module_loaded(module: str, code: str) -> bool:
    """Whether module is imported after running code in a fresh interpreter."""
    return fresh_value(code, f"{module!r} in sys.modules") == "True"


def test_mask_tables_are_built_on_first_use():
    # an import or a campaign builds none: they would weigh on setup time
    built = "ucf.core.mask_tables.cache_info().currsize"
    assert fresh_value("import ucf.cli", built) == "0"
    argv = "['verify', '--n', '5', '--t', '3', '--workers', '1']"
    assert fresh_value(f"import ucf.cli\nassert ucf.cli.main({argv}) == 0", built) == "0"
    # a check builds the tables of its ground size, and those below it
    check = "import ucf\nucf.check_single(ucf.parse_family('n=5\\n1\\n2\\n')).to_dict()"
    assert fresh_value(check, built) == "6"


def test_campaigns_run_without_numpy():
    assert not module_loaded(
        "numpy",
        "import sys, ucf, ucf.cli\n"
        "from ucf import EnumerationConstraints, run_campaign\n"
        "report = run_campaign(EnumerationConstraints(5, 3, up_to_iso=True))\n"
        "assert report.families_total == 119 and not report.counterexamples"
    )


def test_context_and_labelled_listing_run_without_numpy():
    # the search context behind the benchmark's setup time
    assert not module_loaded(
        "numpy",
        "import sys, ucf.cli\n"
        "from ucf.enumeration import EnumerationConstraints, job_depth\n"
        "assert job_depth(EnumerationConstraints(6, 3, up_to_iso=True)) == 16"
    )
    assert not module_loaded(
        "numpy",
        "import os, sys, ucf.cli\n"
        "assert ucf.cli.main(['enumerate', '--n', '5', '--t', '3', '--out', os.devnull]) == 0"
    )
    # the canonical relabel of an up-to-iso listing does load it, in the
    # processes that walk: this one when serial, only the workers of a pool
    for workers, loaded in (("1", True), ("2", False)):
        assert module_loaded(
            "numpy",
            "import os, sys, ucf.cli\n"
            "argv = ['enumerate', '--n', '5', '--t', '3', '--up-to-iso', '--out', os.devnull]\n"
            f"assert ucf.cli.main(argv + ['--workers', '{workers}']) == 0",
        ) is loaded


def test_context_builds_without_the_pool_modules():
    # only a campaign with a pool imports them; they would weigh on setup time
    for module in ("multiprocessing", "concurrent.futures"):
        assert not module_loaded(
            module,
            "import sys, ucf.cli\n"
            "from ucf.enumeration import EnumerationConstraints, job_depth\n"
            "assert job_depth(EnumerationConstraints(6, 3, up_to_iso=True)) == 16",
        )
