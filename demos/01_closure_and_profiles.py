"""Build a family, union-close it, and read off its basic invariants.

A family lives over the ground set {1..n} and is stored as ascending
bitmasks; everything here is exact integer arithmetic.
"""

from __future__ import annotations

from ucf import (
    SetFamily,
    format_family,
    frequency_profile,
    is_union_closed,
    level_profile,
    t_value,
    union_closure,
)

# three generators over {1..6}; their pairwise unions are missing
seed = SetFamily.from_sets(6, [[1, 2, 3], [1, 4, 5], [2, 4, 6]])
print("seed family:")
print(format_family(seed))
print("union-closed?", is_union_closed(seed))

closed = union_closure(seed)
print(f"\nclosure adds {closed.m - seed.m} sets:")
print(format_family(closed))
print("union-closed?", is_union_closed(closed))

# T(F) is the smallest nonempty member size; the level profile counts
# members by cardinality
print("T(F) =", t_value(closed))
print("members by cardinality:", level_profile(closed))

# an element is abundant when it belongs to at least half the members
# (the integer test 2*freq >= m; no floating point anywhere)
prof = frequency_profile(closed)
print("\nelement frequencies:", prof.freq, "of m =", prof.m)
print("abundant elements:", sorted(prof.abundant))
