"""Two independent enumeration routes agreeing on a full census.

The orderly search decides candidate masks one at a time, keeps
union-closure as a pure look-back test, and can collapse relabeling
orbits on the fly.  The brute-force oracle filters every subset of the
candidate pool with vectorized numpy and shares no code with the
search.  They must agree exactly.
"""

from __future__ import annotations

from collections import Counter

from ucf import (
    EnumerationConstraints,
    SetFamily,
    brute_force_enumerate,
    canonical_form,
    enumerate_families,
    format_family,
    full_mask,
)


def key_family(n: int, key: int) -> SetFamily:
    """The family behind an enumerate_families key: the int whose bit
    2^n - 1 - m is set iff the mask m is a member."""
    full = full_mask(n)
    return SetFamily(n, tuple(m for m in range(full + 1) if key >> (full - m) & 1))


c = EnumerationConstraints(n=4, t=2)

# enumerate_families hands out each job's keys, one int per family
search: list = []
count = enumerate_families(c, lambda keys: search.extend(key_family(c.n, key) for key in keys))
oracle = brute_force_enumerate(c)
print(f"n=4, t=2: search {count}, oracle {len(oracle)}")
assert Counter(f.members for f in search) == Counter(f.members for f in oracle)
print("family multisets agree")

# collapse to one representative per relabeling orbit
c_iso = EnumerationConstraints(n=4, t=2, up_to_iso=True)
classes: list = []
enumerate_families(c_iso, lambda keys: classes.extend(key_family(c_iso.n, key) for key in keys))
print(f"isomorphism classes: {len(classes)}")
# a canonical form is hashable and names its orbit, so it is the key
keys = [canonical_form(f) for f in classes]
assert len(set(keys)) == len(keys)
assert set(keys) == {canonical_form(f) for f in oracle}
print("orbit keys agree with the oracle's orbits")

# every emitted representative is already in canonical form
assert all(canonical_form(f) == f for f in classes)

print("\nsmallest class representatives:")
for family in classes[:3]:
    print(format_family(family))
