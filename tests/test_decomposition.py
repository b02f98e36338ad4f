from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lex_least_max_matching, max_matching_by_recursion
from ucf.decomposition import MAX_EXACT_SLICE
from ucf import (
    InfeasibleScale,
    NotInScope,
    PairDecomposition,
    PreconditionViolation,
    SetFamily,
    WitnessUnavailable,
    abundance_witness,
    classify_shape,
    full_mask,
    pair_decompose,
    union_closure,
)

M6 = full_mask(6)


def closed_n6(*sets_):
    """Union-close the given sets over {1..6} and adjoin the empty set."""
    seed = SetFamily.from_sets(6, sets_)
    closed = union_closure(seed)
    return SetFamily.from_masks(6, (0,) + closed.members)


class TestClassifyShape:
    def test_three_level_only(self):
        f = closed_n6([1, 2, 3], [1, 2, 3, 4, 5, 6])
        assert classify_shape(f) == "G3"

    def test_with_five_level(self):
        f = closed_n6([1, 2, 3], [1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6])
        assert classify_shape(f) == "G3_G5"

    def test_with_four_level(self):
        f = closed_n6([1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4, 5, 6])
        assert classify_shape(f) == "G3_G4"

    def test_with_both_upper_levels(self):
        f = closed_n6([1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6])
        assert classify_shape(f) == "G3_G4_G5"

    def test_wrong_ground_size(self):
        f = SetFamily.from_sets(5, [[], [1, 2, 3], [1, 2, 3, 4, 5]])
        with pytest.raises(NotInScope):
            classify_shape(f)

    def test_missing_empty_set(self):
        f = SetFamily.from_sets(6, [[1, 2, 3], [1, 2, 3, 4, 5, 6]])
        with pytest.raises(NotInScope):
            classify_shape(f)

    def test_missing_universe(self):
        f = SetFamily.from_sets(6, [[], [1, 2, 3]])
        with pytest.raises(NotInScope):
            classify_shape(f)

    def test_wrong_t(self):
        f = SetFamily.from_sets(6, [[], [1, 2], [1, 2, 3, 4, 5, 6]])
        with pytest.raises(NotInScope):
            classify_shape(f)

    def test_no_nonempty_member(self):
        # masks 0 and 63 give T=6, not 3; drop to the truly empty case
        f = SetFamily.from_masks(6, [0])
        with pytest.raises(NotInScope):
            classify_shape(f)

    def test_not_union_closed(self):
        f = SetFamily.from_sets(
            6, [[], [1, 2, 3], [4, 5, 6], [1, 2, 3, 4, 5, 6], [1, 3, 5]]
        )
        # {1,2,3} | {1,3,5} = {1,2,3,5} is missing
        with pytest.raises(NotInScope):
            classify_shape(f)


class TestPairDecompose:
    def test_complementary_pair(self):
        d = pair_decompose([0b000111, 0b111000], M6)
        assert d.k == 1
        assert d.pairs == ((0b000111, 0b111000),)
        assert d.residue == ()
        assert d.target == M6

    def test_slice_with_no_complementary_pairs(self):
        # pairwise unions all have size 5, so the matching is empty
        masks = [0b000111, 0b011001, 0b101010, 0b110100]
        d = pair_decompose(masks, M6)
        assert d.k == 0
        assert d.residue == tuple(masks)
        assert all((a | b).bit_count() == 5 for a, b in itertools.combinations(d.residue, 2))

    def test_lowest_index_gets_smallest_workable_partner(self):
        target = 0b11
        d = pair_decompose([0b01, 0b10, 0b11], target)
        assert d.pairs == ((0b01, 0b10),)
        assert d.residue == (0b11,)

    def test_input_order_drives_the_tie_break(self):
        target = 0b11
        d = pair_decompose([0b11, 0b01, 0b10], target)
        assert d.pairs == ((0b11, 0b01),)
        assert d.residue == (0b10,)

    def test_duplicate_masks_rejected(self):
        with pytest.raises(PreconditionViolation):
            pair_decompose([0b01, 0b01], 0b11)

    def test_non_subset_rejected(self):
        with pytest.raises(PreconditionViolation):
            pair_decompose([0b100], 0b011)

    def test_empty_slice(self):
        d = pair_decompose([], M6)
        assert d.k == 0 and d.pairs == () and d.residue == ()

    def test_full_n6_t3_slice_is_exact(self):
        # the largest level over M_6: every 3-set pairs with its complement
        masks = [m for m in range(M6 + 1) if m.bit_count() == 3]
        assert len(masks) == MAX_EXACT_SLICE
        d = pair_decompose(masks, M6)
        assert d.k == 10 and d.residue == ()

    def test_slice_above_the_cap_is_refused(self):
        masks = [m for m in range(1 << 7) if m.bit_count() == 4][: MAX_EXACT_SLICE + 1]
        with pytest.raises(InfeasibleScale):
            pair_decompose(masks, full_mask(7))

    @settings(max_examples=60)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=63), min_size=0, max_size=9, unique=True
        )
    )
    def test_matching_is_valid_and_maximum(self, masks):
        d = pair_decompose(masks, M6)
        flat = [m for pair in d.pairs for m in pair] + list(d.residue)
        assert sorted(flat) == sorted(masks)  # a partition of the slice
        assert all(a | b == M6 for a, b in d.pairs)
        assert d.k == max_matching_by_recursion(masks, M6)

    @settings(max_examples=200)
    @given(st.data())
    def test_pairing_is_the_lex_least_maximum_matching(self, data):
        n = data.draw(st.integers(min_value=2, max_value=6))
        target = data.draw(st.integers(min_value=0, max_value=full_mask(n)))
        subsets = [m for m in range(target + 1) if m | target == target]
        masks = data.draw(st.lists(st.sampled_from(subsets), max_size=8, unique=True))
        d = pair_decompose(masks, target)
        assert (d.pairs, d.residue) == lex_least_max_matching(masks, target)


class TestPairDecompositionType:
    def test_k_must_match(self):
        with pytest.raises(ValueError):
            PairDecomposition(((0b01, 0b10),), (), 2, 0b11)

    def test_pair_unions_validated(self):
        with pytest.raises(ValueError):
            PairDecomposition(((0b01, 0b01),), (), 1, 0b11)


class TestAbundanceWitness:
    def test_minimal_t3_family(self):
        f = SetFamily.from_sets(6, [[], [1, 2, 3], [1, 2, 3, 4, 5, 6]])
        w = abundance_witness(f)
        assert w.elements == (1, 2, 3)
        assert w.m == 3
        assert w.counts == (2, 2, 2)

    def test_every_element_abundant(self):
        f = SetFamily.from_sets(6, [[], [1, 2, 3], [4, 5, 6], [1, 2, 3, 4, 5, 6]])
        w = abundance_witness(f)
        assert w.elements == (1, 2, 3, 4, 5, 6)
        assert w.counts == (2, 2, 2, 2, 2, 2)

    def test_unavailable_when_too_few_abundant(self):
        # not union-closed, but the witness machinery is profile-only
        f = SetFamily.from_sets(4, [[], [1], [2], [3]])
        with pytest.raises(WitnessUnavailable) as exc:
            abundance_witness(f)
        assert "freq=" in str(exc.value)

    def test_t1_needs_just_one(self):
        f = SetFamily.from_sets(3, [[1], [1, 2]])
        w = abundance_witness(f)
        assert 1 in w.elements
