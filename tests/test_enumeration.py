from __future__ import annotations

import contextlib
import io
import itertools
import os
import subprocess
import sys
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucf.cli as cli
import ucf.enumeration as enumeration
from oracles import asc_families, asc_walk, family_key, key_family, naive_canonical_members, positions, relabel_family
from ucf import (
    EnumerationConstraints,
    InfeasibleScale,
    PreconditionViolation,
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
    n = enumerate_families(c, lambda keys: out.extend(key_family(c.n, key) for key in keys))
    assert n == len(out)
    return out


def walk_count(c: EnumerationConstraints) -> int:
    """The count of c's families: its jobs' counts summed."""
    return sum(enumerate_job(c, job) for job in subtree_jobs(c))


def family_strategy(n: int):
    return st.sets(
        st.integers(min_value=0, max_value=full_mask(n)), min_size=0, max_size=8
    ).map(lambda ms: SetFamily.from_masks(n, ms))


def listed_family_strategy(n: int):
    """Families that hold {} and M_n, as every enumerated family does."""
    return family_strategy(n).map(lambda f: SetFamily.from_masks(n, (0, full_mask(n), *f.members)))


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
            enumerate_families(EnumerationConstraints(6, 1), [].append)


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


def listing(n: int, keys: list[int]) -> list[str]:
    """The lines ucf.cli writes for keys, count= first."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_listing(array("Q", sorted(keys)), n, None)
    return out.getvalue().splitlines()


class TestListingKeys:
    # enumerate_families hands out E(F) (oracles.family_key), and ucf.cli
    # renders listing lines from it

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6).flatmap(listed_family_strategy))
    def test_key_decodes_to_the_members(self, family):
        key = family_key(family)
        assert key_family(family.n, key) == family
        assert listing(family.n, [key]) == ["count=1", ",".join(map(str, family.members))]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(listed_family_strategy(n), max_size=12))))
    def test_descending_keys_are_member_tuple_order(self, n_families):
        n, families = n_families
        by_key = sorted(families, key=family_key, reverse=True)
        assert [bytes(f.members) for f in by_key] == sorted(bytes(f.members) for f in families)
        lines = listing(n, [family_key(f) for f in families])
        assert lines == [f"count={len(families)}"] + [",".join(map(str, f.members)) for f in by_key]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6).flatmap(listed_family_strategy))
    def test_canonical_form_decodes_the_largest_key(self, family):
        form = canonical_form(family)
        assert form.members == naive_canonical_members(family)
        perms = itertools.permutations(range(family.n))
        assert family_key(form) == max(family_key(relabel_family(family, perm)) for perm in perms)


class TestEnumerateFamilies:
    @pytest.mark.parametrize("n,t", sorted(KNOWN_COUNTS))
    @pytest.mark.parametrize("order", ["desc", "asc"])
    def test_known_counts(self, n, t, order):
        # asc: the ascending walk of tests/oracles.py
        count = walk_count if order == "desc" else asc_walk
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
                present = sum(1 << pos[m] for m in family.members if m in pos)
                assert node_family(c, present) == family
            return
        # enumerate_families hands out each job's keys in the walk's
        # preorder, one run per job in subtree_jobs order
        expected: list[int] = []
        for job in subtree_jobs(c):
            nodes: list[int] = []
            enumerate_job(c, job, lambda present, counts: nodes.append(present))
            expected += [family_key(node_family(c, present)) for present in nodes]
        keys: list[int] = []
        assert enumerate_families(c, keys.extend) == len(expected)
        assert keys == expected

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
        assert walk_count(c) == 2271

    @pytest.mark.parametrize("n,t,iso", [(5, 3, True), (6, 4, True), (4, 1, False), (4, 2, False)])
    def test_every_emitted_key_is_its_node_family(self, n, t, iso):
        # a job's first visit is its root, the node of its prefix, so the
        # per-depth lanes of an up-to-iso emit are seeded from the prefix
        c = EnumerationConstraints(n, t, up_to_iso=iso)
        for job in subtree_jobs(c):
            nodes: list[int] = []
            enumerate_job(c, job, lambda present, counts: nodes.append(present))
            expected = [family_key(node_family(c, present)) for present in nodes]
            keys = enumeration._job_keys((c, job))
            # a run of 8-byte ints pickles as one buffer; each key sits at its
            # own node, in preorder, and the classes are distinct
            assert isinstance(keys, array) and keys.itemsize == 8, job
            assert len(set(keys)) == len(keys), job
            assert list(keys) == expected, job

    @pytest.mark.parametrize("n,t,iso", [(5, 2, False), (5, 3, True)])
    def test_visit_stream_is_the_same_on_a_pool(self, n, t, iso):
        c = EnumerationConstraints(n, t, up_to_iso=iso)
        streams = []
        for workers in (1, 2):
            keys = array("Q")
            assert enumerate_families(c, keys.extend, workers=workers) == KNOWN_COUNTS[(n, t)][iso]
            streams.append(keys)
        assert streams[0] == streams[1]

    def test_workers_below_one_rejected(self):
        for workers in (0, -3):
            with pytest.raises(PreconditionViolation, match="workers must be at least 1"):
                enumerate_families(EnumerationConstraints(3, 1), [].append, workers=workers)

    def test_dead_pool_worker_fails_the_listing(self):
        # a listing whose pool worker is killed (SIGKILL, or the OOM killer)
        # must fail, not hang; run apart, so a hang fails on the timeout
        code = """
import os, signal
from concurrent.futures.process import BrokenProcessPool
import ucf.enumeration as enumeration
from ucf import EnumerationConstraints, enumerate_families

c = EnumerationConstraints(4, 1)
jobs = enumeration.subtree_jobs(c)
enumerate_job = enumeration.enumerate_job

def job(c, j, *args, **kwargs):
    if j == jobs[len(jobs) // 2]:
        os.kill(os.getpid(), signal.SIGKILL)
    return enumerate_job(c, j, *args, **kwargs)

enumeration.enumerate_job = job
try:
    enumerate_families(c, [].append, workers=2)
    raise SystemExit("the listing survived a dead worker")
except BrokenProcessPool:
    pass
"""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(enumeration.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr


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
            total += enumerate_job(c, job, lambda present, counts: got.append(present))
            seen.extend(node_family(c, present).members for present in got)
        assert total == len(serial)
        assert sorted(seen) == sorted(f.members for f in serial)

    @pytest.mark.parametrize(
        "n,t,iso", [(4, 1, False), (4, 1, True), (5, 2, False), (5, 2, True), (6, 4, True), (6, 3, True)]
    )
    def test_subtree_jobs_are_the_nonempty_ids(self, n, t, iso):
        # the definition, by brute force over every id: 1,024 at n=5 t=2
        # labelled, 65,536 at the flagship
        c = EnumerationConstraints(n, t, up_to_iso=iso)
        assert subtree_jobs(c) == [j for j in range(1 << job_depth(c)) if enumerate_job(c, j)]

    @pytest.mark.parametrize("n,t,iso", [(3, 1, False), (3, 1, True), (4, 1, False), (4, 1, True)])
    def test_a_job_of_the_whole_pool_is_one_family_or_none(self, monkeypatch, n, t, iso):
        # with every candidate in the prefix, job j is the one family of j's
        # candidates when the walk visits it, and empty otherwise, also
        # where its forced path runs out of viable candidates early
        c = EnumerationConstraints(n, t, up_to_iso=iso)
        size = enumeration._search_context(c).size
        monkeypatch.setattr(enumeration, "job_depth", lambda c: 0)
        nodes: set[int] = set()
        enumerate_job(c, 0, lambda present, counts: nodes.add(present))
        monkeypatch.setattr(enumeration, "job_depth", lambda c: size)
        counts = {j: enumerate_job(c, j) for j in range(1 << size)}
        assert {j for j, k in counts.items() if k} == nodes
        assert set(counts.values()) == {0, 1}

    def test_every_depth_partitions_the_search(self, monkeypatch):
        # the split is job_depth's alone; any depth partitions the walk
        c = EnumerationConstraints(5, 2, up_to_iso=True)
        for depth in (0, 5, 10, job_depth(c)):
            monkeypatch.setattr(enumeration, "job_depth", lambda c: depth)
            assert sum(enumerate_job(c, j) for j in subtree_jobs(c)) == 2900


    @pytest.mark.parametrize(
        "n,t,iso", [(4, 1, False), (4, 1, True), (5, 2, False), (5, 2, True), (5, 3, True), (6, 4, True)]
    )
    def test_each_job_is_its_prefix_slice_of_the_walk(self, monkeypatch, n, t, iso):
        # a job visits exactly the nodes of the unsplit walk whose chosen
        # candidates below the depth are its prefix, in the walk's order,
        # which is also the order of a job's failure records
        c = EnumerationConstraints(n, t, up_to_iso=iso)
        depths = (0, 3, job_depth(c))
        monkeypatch.setattr(enumeration, "job_depth", lambda c: 0)
        walk: list[tuple[bytes, int]] = []
        enumerate_job(c, 0, lambda present, counts: walk.append((bytes(positions(present)), counts)))
        for depth in depths:
            monkeypatch.setattr(enumeration, "job_depth", lambda c: depth)
            slices: dict[int, list[tuple[bytes, int]]] = {}
            for node in walk:
                slices.setdefault(sum(1 << p for p in node[0] if p < depth), []).append(node)
            assert subtree_jobs(c) == sorted(slices), depth
            for job, expected in slices.items():
                got: list[tuple[bytes, int]] = []
                assert enumerate_job(c, job, lambda present, counts: got.append((bytes(positions(present)), counts))) == len(got)
                assert got == expected, (depth, job)


class TestBruteForceOracle:
    def test_scale_caps(self):
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
