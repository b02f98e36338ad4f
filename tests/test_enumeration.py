from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucf.enumeration as enumeration
from oracles import asc_families, asc_walk, naive_canonical_members, relabel_family
from ucf import (
    EnumerationConstraints,
    InfeasibleScale,
    SetFamily,
    brute_force_enumerate,
    canonical_form,
    enumerate_families,
    full_mask,
    is_union_closed,
    t_value,
)
from ucf.enumeration import enumerate_job, ensure_enumerable, job_depth, node_family, subtree_jobs

# counts frozen from the brute-force oracle at n <= 4 and cross-checked
# against the ascending walk of tests/oracles.py at n = 5
KNOWN_COUNTS = {
    (2, 1): (4, 3),  # (raw, up_to_iso)
    (2, 2): (1, 1),
    (3, 3): (1, 1),
    (4, 1): (2271, 165),
    (4, 2): (378, 40),
    (4, 3): (16, 5),
    (4, 4): (1, 1),
    (5, 2): (241805, 2900),
    (5, 3): (4945, 119),
    (5, 4): (32, 6),
    (5, 5): (1, 1),
    (6, 5): (64, 7),
}


def collect(c: EnumerationConstraints) -> list[SetFamily]:
    out: list[SetFamily] = []
    n = enumerate_families(c, out.append)
    assert n == len(out)
    return out


def family_strategy(n: int):
    return st.sets(
        st.integers(min_value=0, max_value=full_mask(n)), min_size=0, max_size=8
    ).map(lambda ms: SetFamily.from_masks(n, ms))


class TestConstraints:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnumerationConstraints(1, 1)
        with pytest.raises(ValueError):
            EnumerationConstraints(13, 1)
        with pytest.raises(ValueError):
            EnumerationConstraints(4, 0)
        with pytest.raises(ValueError):
            EnumerationConstraints(4, 5)

    def test_admits_only_enumerable_configurations(self):
        # every enumerated family holds M_n, and n >= 7 is out of scope
        with pytest.raises(ValueError):
            EnumerationConstraints(4, 2, False)
        with pytest.raises(InfeasibleScale):
            EnumerationConstraints(7, 3)

    def test_envelope(self):
        with pytest.raises(InfeasibleScale):
            ensure_enumerable(EnumerationConstraints(6, 2))
        ensure_enumerable(EnumerationConstraints(6, 2), unbounded=True)
        ensure_enumerable(EnumerationConstraints(6, 3))

    def test_enumerate_respects_envelope(self):
        with pytest.raises(InfeasibleScale):
            enumerate_families(EnumerationConstraints(6, 1))
        with pytest.raises(InfeasibleScale):
            enumerate_families(EnumerationConstraints(7, 3))


class TestCanonicalKey:
    def test_empty_family(self):
        assert canonical_form(SetFamily(4, ())) == SetFamily(4, ())

    def test_scale_cap(self):
        with pytest.raises(InfeasibleScale):
            canonical_form(SetFamily(8, (0, 1)))

    def test_scale_cap_at_seven(self):
        # mask images reach 127 at n=7, past the 64-bit encoding lanes
        with pytest.raises(InfeasibleScale):
            canonical_form(SetFamily.from_sets(7, [[1], [2]]))
        with pytest.raises(InfeasibleScale):
            canonical_form(SetFamily(7, (0, 127)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6).flatmap(family_strategy))
    def test_matches_permutation_scan(self, family):
        assert canonical_form(family).members == naive_canonical_members(family)

    @settings(max_examples=40)
    @given(family_strategy(4))
    def test_orbit_invariance_all_perms(self, family):
        key = canonical_form(family)
        for perm in itertools.permutations(range(4)):
            assert canonical_form(relabel_family(family, perm)) == key

    @settings(max_examples=40)
    @given(family_strategy(4))
    def test_canonical_form_is_fixed_point(self, family):
        form = canonical_form(family)
        assert canonical_form(form) == form

    def test_distinct_orbits_get_distinct_keys(self):
        a = SetFamily.from_sets(3, [[1], [1, 2]])
        b = SetFamily.from_sets(3, [[1], [2, 3]])
        assert canonical_form(a) != canonical_form(b)

    def test_keys_order_totally(self):
        # forms are hashable keys, ordered by their member tuples
        a = canonical_form(SetFamily.from_sets(3, [[1]]))
        b = canonical_form(SetFamily.from_sets(3, [[1], [1, 2]]))
        assert len({a, b}) == 2
        assert (a.members < b.members) != (b.members < a.members)


class TestEnumerateFamilies:
    @pytest.mark.parametrize("n,t", sorted(KNOWN_COUNTS))
    @pytest.mark.parametrize("order", ["desc", "asc"])
    def test_known_counts(self, n, t, order):
        # asc: the ascending walk of tests/oracles.py
        count = enumerate_families if order == "desc" else asc_walk
        raw, iso = KNOWN_COUNTS[(n, t)]
        assert count(EnumerationConstraints(n, t)) == raw
        assert count(EnumerationConstraints(n, t, up_to_iso=True)) == iso

    def test_family_shape_contract(self):
        c = EnumerationConstraints(4, 2)
        for family in collect(c):
            assert family.members[0] == 0
            assert family.members[-1] == full_mask(4)
            assert is_union_closed(family)
            assert t_value(family) >= 2

    def test_orders_agree_on_visit_sets(self):
        c = EnumerationConstraints(4, 2)
        desc = {f.members for f in collect(c)}
        asc = {f.members for f in asc_families(c)}
        assert desc == asc

    def test_iso_emits_canonical_representatives(self):
        c = EnumerationConstraints(4, 2, up_to_iso=True)
        for families in (collect(c), asc_families(c)):
            for f in families:
                assert f == canonical_form(f)

    def test_iso_desc_families_are_their_canonical_forms(self):
        families = collect(EnumerationConstraints(5, 2, up_to_iso=True))
        assert len(families) == 2900
        for f in families:
            assert canonical_form(f) == f

    @pytest.mark.parametrize("order", ["desc", "asc"])
    @pytest.mark.parametrize("n,t,iso", [(5, 2, True), (4, 1, False)])
    def test_node_family_is_the_visited_family(self, order, n, t, iso):
        c = EnumerationConstraints(n, t, up_to_iso=iso)
        if order == "asc":
            # handed the pool positions of a family the ascending walk of
            # tests/oracles.py visits, node_family builds that family back
            pos = {mask: i for i, mask in enumerate(enumeration._search_context(c).pool)}
            for family in asc_families(c):
                chosen = sorted(pos[m] for m in family.members if m in pos)
                assert node_family(c, chosen) == family
            return
        # the walk tries positions in increasing order and visits a node
        # before its children, so the visit stream of enumerate_families
        # lists the nodes in lexicographic order of their chosen positions
        nodes: list[list[int]] = []
        for job in subtree_jobs(c):
            enumerate_job(c, job, lambda chosen, counts: nodes.append(chosen[:]))
        nodes.sort()
        visited = collect(c)
        assert len(visited) == len(nodes)
        for chosen, family in zip(nodes, visited):
            assert node_family(c, chosen) == family

    def test_iso_collapses_raw_orbits_exactly(self):
        raw_keys = {canonical_form(f) for f in collect(EnumerationConstraints(4, 2))}
        iso = collect(EnumerationConstraints(4, 2, up_to_iso=True))
        assert {canonical_form(f) for f in iso} == raw_keys
        assert len(iso) == len(raw_keys)

    def test_visit_stream_deterministic(self):
        c = EnumerationConstraints(4, 1)
        first = [f.members for f in collect(c)]
        second = [f.members for f in collect(c)]
        assert first == second

    def test_count_without_visitor(self):
        c = EnumerationConstraints(4, 1)
        assert enumerate_families(c) == 2271


class TestJobPartition:
    def test_job_depth_small_pool_runs_serial(self):
        # n=2, t=1: pool has 2 candidates, so a single job covers it
        c = EnumerationConstraints(2, 1)
        assert job_depth(c) == 0
        assert subtree_jobs(c) == [0]

    @pytest.mark.parametrize("order", ["desc", "asc"])
    @pytest.mark.parametrize("iso", [False, True])
    def test_jobs_partition_the_search(self, order, iso):
        # the jobs together visit each family of the serial walk, or of the
        # ascending walk of tests/oracles.py, exactly once
        c = EnumerationConstraints(4, 1, up_to_iso=iso)
        serial = collect(c) if order == "desc" else asc_families(c)
        total = 0
        seen: list[tuple[int, ...]] = []
        for job in subtree_jobs(c):
            got: list[int] = []
            total += enumerate_job(c, job, lambda chosen, counts: got.append(chosen[:]))
            seen.extend(node_family(c, chosen).members for chosen in got)
        assert total == len(serial)
        assert sorted(seen) == sorted(f.members for f in serial)

    def test_job_respects_envelope(self):
        with pytest.raises(InfeasibleScale):
            enumerate_job(EnumerationConstraints(6, 2), 0)


class TestBruteForceOracle:
    def test_scale_caps(self):
        with pytest.raises(InfeasibleScale):
            brute_force_enumerate(EnumerationConstraints(7, 3))
        with pytest.raises(InfeasibleScale):
            # pool of 31 candidates exceeds the 2^22 subset budget
            brute_force_enumerate(EnumerationConstraints(5, 1))

    def test_singleton_configuration(self):
        families = brute_force_enumerate(EnumerationConstraints(3, 3))
        assert len(families) == 1
        assert families[0].members == (0, 7)

    def test_n2_census(self):
        families = brute_force_enumerate(EnumerationConstraints(2, 1))
        assert len(families) == 4
        assert all(0 in f.members and 3 in f.members for f in families)

    @pytest.mark.parametrize("n,t", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    # the one value EnumerationConstraints admits, kept as an axis so the
    # case ids read as before require_universe=False was retired
    @pytest.mark.parametrize("universe", [True])
    @pytest.mark.parametrize("iso", [False, True])
    def test_agrees_with_orderly_search(self, n, t, universe, iso):
        c = EnumerationConstraints(n, t, universe, iso)
        oracle = brute_force_enumerate(c)
        search = collect(c)
        assert Counter(f.members for f in oracle) == Counter(f.members for f in search)
