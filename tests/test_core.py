from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import as_frozensets, as_sets, naive_closure, naive_is_union_closed, relabel_family, relabel_mask
from ucf import (
    FrequencyProfile,
    NoNonemptyMember,
    NotInScope,
    PreconditionViolation,
    SetFamily,
    elements_of_mask,
    frankl_holds,
    frequency_profile,
    full_mask,
    is_union_closed,
    lemma_1_2_bound,
    level_profile,
    mask_from_elements,
    s_frankl_holds,
    t_value,
    union_closure,
)


def masks_strategy(n: int):
    return st.integers(min_value=0, max_value=full_mask(n))


def family_strategy(n: int, min_size: int = 0, max_size: int = 8):
    return st.sets(masks_strategy(n), min_size=min_size, max_size=max_size).map(
        lambda ms: SetFamily.from_masks(n, ms)
    )


def perm_strategy(n: int):
    return st.permutations(list(range(n)))


class TestMaskHelpers:
    def test_full_mask(self):
        assert full_mask(2) == 3
        assert full_mask(6) == 63

    def test_mask_from_elements(self):
        assert mask_from_elements([], 4) == 0
        assert mask_from_elements([1, 2, 3], 6) == 7
        assert mask_from_elements([6], 6) == 32

    def test_mask_from_elements_range(self):
        with pytest.raises(ValueError):
            mask_from_elements([0], 4)
        with pytest.raises(ValueError):
            mask_from_elements([5], 4)

    def test_elements_of_mask(self):
        assert elements_of_mask(0) == ()
        assert elements_of_mask(0b110100) == (3, 5, 6)

    @given(st.sets(st.integers(min_value=1, max_value=12)))
    def test_mask_round_trip(self, elements):
        mask = mask_from_elements(elements, 12)
        assert elements_of_mask(mask) == tuple(sorted(elements))

    @given(masks_strategy(12))
    def test_elements_of_mask_matches_bits(self, mask):
        assert elements_of_mask(mask) == tuple(b + 1 for b in range(12) if mask >> b & 1)

    def test_relabel_mask(self):
        # swap elements 1 and 2 of {1,3}
        assert relabel_mask(0b101, (1, 0, 2)) == 0b110

    @given(masks_strategy(5), perm_strategy(5), perm_strategy(5))
    def test_relabel_mask_composes(self, mask, p, q):
        composed = [q[p[b]] for b in range(5)]
        assert relabel_mask(relabel_mask(mask, p), q) == relabel_mask(mask, composed)


class TestSetFamily:
    def test_valid_construction(self):
        f = SetFamily(3, (0, 1, 3, 7))
        assert f.m == 4
        assert 3 in f.members
        assert 5 not in f.members

    def test_members_must_ascend(self):
        with pytest.raises(ValueError):
            SetFamily(3, (1, 1))
        with pytest.raises(ValueError):
            SetFamily(3, (3, 1))

    def test_mask_range_checked(self):
        with pytest.raises(ValueError):
            SetFamily(3, (0, 8))
        with pytest.raises(ValueError):
            SetFamily(3, (-1,))

    def test_ground_size_bounds(self):
        with pytest.raises(ValueError):
            SetFamily(1, (0,))
        with pytest.raises(ValueError):
            SetFamily(13, (0,))

    def test_from_masks_dedups_and_sorts(self):
        f = SetFamily.from_masks(4, [7, 0, 7, 3])
        assert f.members == (0, 3, 7)

    def test_from_sets(self):
        f = SetFamily.from_sets(6, [[], [1, 2, 3], [4, 5, 6]])
        assert f.members == (0, 7, 56)

    def test_members_of_size(self):
        f = SetFamily.from_sets(4, [[], [1], [2], [1, 2], [1, 2, 3, 4]])
        assert f.members_of_size(1) == (1, 2)
        assert f.members_of_size(4) == (15,)


class TestClosure:
    def test_is_union_closed_examples(self):
        assert is_union_closed(SetFamily.from_sets(3, [[], [1], [1, 2]]))
        assert not is_union_closed(SetFamily.from_sets(3, [[1], [2]]))

    def test_union_closure_example(self):
        f = SetFamily.from_sets(3, [[1], [2]])
        assert as_sets(union_closure(f)) == [(1,), (2,), (1, 2)]

    def test_closure_does_not_add_empty_set(self):
        f = SetFamily.from_sets(3, [[1, 2]])
        assert 0 not in union_closure(f).members

    # the naive closure is quadratic in the closure, so larger n gets fewer members
    @given(family_strategy(4) | st.integers(5, 12).flatmap(lambda n: family_strategy(n, max_size=6)))
    def test_closure_matches_naive(self, family):
        got = as_frozensets(union_closure(family))
        assert got == frozenset(naive_closure(set(as_frozensets(family))))

    @given(family_strategy(5))
    def test_closure_idempotent_and_closed(self, family):
        closed = union_closure(family)
        assert is_union_closed(closed)
        assert union_closure(closed) == closed

    @given(family_strategy(5))
    def test_closure_minimal(self, family):
        # each closure member is exactly the union of the input members
        # it contains, so nothing extraneous ever gets added
        closed = union_closure(family)
        for u in closed.members:
            parts = [a for a in family.members if a | u == u]
            assert parts and u == _or_all(parts)

    @given(family_strategy(4))
    def test_is_union_closed_matches_naive(self, family):
        assert is_union_closed(family) == naive_is_union_closed(set(as_frozensets(family)))


def _or_all(masks):
    out = 0
    for m in masks:
        out |= m
    return out


class TestProfilesAndT:
    def test_t_value(self):
        assert t_value(SetFamily.from_sets(6, [[], [1, 2, 3], [1, 2, 3, 4, 5, 6]])) == 3
        assert t_value(SetFamily.from_sets(3, [[2], [1, 2, 3]])) == 1

    def test_t_value_needs_nonempty(self):
        with pytest.raises(NoNonemptyMember):
            t_value(SetFamily(3, (0,)))
        with pytest.raises(NoNonemptyMember):
            t_value(SetFamily(3, ()))

    def test_level_profile(self):
        f = SetFamily.from_sets(4, [[], [1], [2], [1, 2, 3, 4]])
        assert level_profile(f) == (1, 2, 0, 0, 1)

    def test_frequency_profile(self):
        f = SetFamily.from_sets(3, [[], [1], [1, 2], [1, 2, 3]])
        prof = frequency_profile(f)
        assert prof == FrequencyProfile((3, 2, 1), 4, frozenset({1, 2}))

    def test_abundant_threshold_is_inclusive(self):
        # 2 * freq == m sits exactly on the boundary and counts
        f = SetFamily.from_sets(2, [[], [1], [1, 2], [2]])
        prof = frequency_profile(f)
        assert prof.freq == (2, 2)
        assert prof.abundant == frozenset({1, 2})

    @given(family_strategy(5, min_size=1))
    def test_frequencies_sum_to_total_cardinality(self, family):
        prof = frequency_profile(family)
        assert sum(prof.freq) == sum(m.bit_count() for m in family.members)

    @given(st.integers(2, 12).flatmap(lambda n: family_strategy(n, max_size=40)))
    def test_frequency_profile_matches_a_count(self, family):
        n, m = family.n, family.m
        freq = tuple(sum(1 for mask in family.members if mask >> b & 1) for b in range(n))
        abundant = frozenset(b + 1 for b in range(n) if 2 * freq[b] >= m)
        assert frequency_profile(family) == FrequencyProfile(freq, m, abundant)

    def test_frequency_lanes_hold_every_subset(self):
        # 2^12 members: each element's count, 2^11, stays in its 16-bit lane
        family = SetFamily(12, tuple(range(1 << 12)))
        assert frequency_profile(family) == FrequencyProfile((1 << 11,) * 12, 1 << 12, frozenset(range(1, 13)))


class TestConjectureStatements:
    def test_frankl_holds_example(self):
        assert frankl_holds(SetFamily.from_sets(3, [[], [1], [1, 2, 3]]))

    def test_frankl_degenerate(self):
        with pytest.raises(NoNonemptyMember):
            frankl_holds(SetFamily(3, (0,)))
        with pytest.raises(NoNonemptyMember):
            frankl_holds(SetFamily(3, ()))

    def test_s_frankl_needs_t_at_least_two(self):
        with pytest.raises(NotInScope):
            s_frankl_holds(SetFamily.from_sets(3, [[1], [1, 2]]))

    def test_s_frankl_example(self):
        f = SetFamily.from_sets(6, [[], [1, 2, 3], [1, 2, 3, 4, 5, 6]])
        assert s_frankl_holds(f)

    @given(family_strategy(5, min_size=1), perm_strategy(5))
    def test_relabel_equivariance(self, family, perm):
        relabeled = relabel_family(family, perm)
        assert sorted(frequency_profile(relabeled).freq) == sorted(
            frequency_profile(family).freq
        )
        try:
            t = t_value(family)
        except NoNonemptyMember:
            t = None
        if t is None:
            with pytest.raises(NoNonemptyMember):
                t_value(relabeled)
            return
        assert t_value(relabeled) == t
        if any(m for m in family.members):
            assert frankl_holds(relabeled) == frankl_holds(family)
        if t >= 2:
            assert s_frankl_holds(relabeled) == s_frankl_holds(family)


class TestLemma12Bound:
    def test_worked_example(self):
        m_mask = full_mask(4)
        coatoms = SetFamily.from_sets(4, [[1, 2, 3], [1, 2, 4], [1, 3, 4]])
        result = lemma_1_2_bound(m_mask, coatoms)
        # element 1 is in all three co-atoms, the others in exactly two
        assert result.min_freq == 2
        assert result.holds

    def test_all_coatoms_of_m4(self):
        m_mask = full_mask(4)
        coatoms = SetFamily.from_masks(4, [m_mask ^ (1 << b) for b in range(4)])
        result = lemma_1_2_bound(m_mask, coatoms)
        assert result.min_freq == 3
        assert result.holds

    def test_preconditions(self):
        with pytest.raises(PreconditionViolation):
            lemma_1_2_bound(1, SetFamily.from_sets(3, [[1], [2]]))  # |M| < 2
        with pytest.raises(PreconditionViolation):
            lemma_1_2_bound(7, SetFamily.from_sets(3, [[1, 2]]))  # one co-atom
        with pytest.raises(PreconditionViolation):
            # not a subset of M
            lemma_1_2_bound(0b0111, SetFamily.from_sets(4, [[1, 2], [2, 4]]))
        with pytest.raises(PreconditionViolation):
            # wrong cardinality
            lemma_1_2_bound(0b0111, SetFamily.from_sets(4, [[1], [1, 2]]))


class TestRelabelFamily:
    def test_bad_perm(self):
        f = SetFamily.from_sets(3, [[1]])
        with pytest.raises(ValueError):
            relabel_family(f, (0, 1))
        with pytest.raises(ValueError):
            relabel_family(f, (0, 0, 2))

    def test_identity(self):
        f = SetFamily.from_sets(3, [[1], [2, 3]])
        assert relabel_family(f, (0, 1, 2)) == f

    def test_swap(self):
        f = SetFamily.from_sets(3, [[1], [1, 3]])
        g = relabel_family(f, (1, 0, 2))
        assert as_sets(g) == [(2,), (2, 3)]

    @settings(max_examples=30)
    @given(family_strategy(4))
    def test_orbit_closes(self, family):
        # applying every permutation and then its inverse returns home
        for perm in itertools.permutations(range(4)):
            inv = [0] * 4
            for i, p in enumerate(perm):
                inv[p] = i
            assert relabel_family(relabel_family(family, perm), inv) == family
