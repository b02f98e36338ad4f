"""Shape taxonomy and T-slice pairing for n=6, T=3 families.

A union-closed family over {1..6} with the empty set, the universe,
and T(F) = 3 populates some of the intermediate levels 4 and 5; the
four possibilities are the shape tags.  Within the 3-level, sets pair
up when their union is the whole ground set; a maximum matching plus
the leftover residue is the pair decomposition.
"""

from __future__ import annotations

from ucf import (
    SetFamily,
    abundance_witness,
    classify_shape,
    elements_of_mask,
    full_mask,
    pair_decompose,
    union_closure,
)


def closed_with_empty(*sets_):
    closed = union_closure(SetFamily.from_sets(6, sets_))
    return SetFamily.from_masks(6, (0,) + closed.members)


# four triples arranged so that no two of them union to M_6
family = closed_with_empty([1, 2, 3], [1, 4, 5], [2, 4, 6], [3, 5, 6])
print("family size:", family.m)
print("shape:", classify_shape(family))

slice3 = family.members_of_size(3)
d = pair_decompose(slice3, full_mask(6))
print(f"\n3-level has {len(slice3)} sets; matched pairs: {d.k}")
print("residue:", [elements_of_mask(m) for m in d.residue])

# at least T(F) = 3 abundant elements must exist; here all six qualify
w = abundance_witness(family)
print("\nabundance witness:", w.elements)
print("certificates:", [f"{e}: {c}/{w.m}" for e, c in zip(w.elements, w.counts)])

# contrast: two complementary triples pair up immediately
paired = SetFamily.from_sets(6, [[], [1, 2, 3], [4, 5, 6], [1, 2, 3, 4, 5, 6]])
d2 = pair_decompose(paired.members_of_size(3), full_mask(6))
print("\ncomplementary-triples family: k =", d2.k, "residue", d2.residue)
print("shape:", classify_shape(paired))
