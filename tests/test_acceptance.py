"""Acceptance gate: one test per acceptance criterion, all exact.

Every assertion is integer equality or an exact zero (no tolerances).
Each test covers one numbered criterion and is named for it, so a
``pytest -v`` run reads as the acceptance checklist; on success each
also prints one ACCEPTANCE ... PASS line for -s / tee'd runs.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter

import pytest

from oracles import as_frozensets, asc_by_t, key_family, max_matching_by_recursion, naive_closure, relabel_family
from ucf import (
    SHAPE_TAGS,
    EnumerationConstraints,
    NoNonemptyMember,
    SetFamily,
    brute_force_enumerate,
    canonical_form,
    check_single,
    enumerate_families,
    frankl_holds,
    frequency_profile,
    full_mask,
    is_union_closed,
    lemma_1_2_bound,
    pair_decompose,
    run_campaign,
    s_frankl_holds,
    t_value,
    union_closure,
)
from ucf.enumeration import enumerate_job, subtree_jobs

# every count below was frozen from the brute-force oracle (n <= 4),
# from cross-checks against the ascending walk of tests/oracles.py, or
# from the first verified flagship run, and is asserted exactly
FLAGSHIP_TOTAL = 415282
FLAGSHIP_BY_T = {3: 414818, 4: 457, 5: 6, 6: 1}
FLAGSHIP_BY_SHAPE = {"G3": 2, "G3_G4": 9, "G3_G4_G5": 414766, "G3_G5": 41}
N5_TOTALS = {2: 241805, 3: 4945, 4: 32, 5: 1}
N4_TOTALS = {1: 2271, 2: 378, 3: 16, 4: 1}
# sha256 of VerificationReport.body_bytes(), as bench/workloads.py pins them
FLAGSHIP_BODY_SHA256 = "ec79cfccff5f23918a21aa2dd3a6fc0ba1a992bbb884cb9babfd2c73df8d3159"
N5_T2_BODY_SHA256 = "15c90b5867206ac97eae1acdaf4f4e020c9f42261f5c33fefbe60caf83ff93f2"


def collect(c: EnumerationConstraints) -> list[SetFamily]:
    out: list[SetFamily] = []
    n = enumerate_families(c, lambda keys: out.extend(key_family(c.n, key) for key in keys))
    assert n == len(out)
    return out


def test_criterion_1_main_theorem_exhaustive_n6_t3(tmp_path, interrupt_at_job):
    """Every isomorphism class of union-closed F over M_6 with
    emptyset, M_6 in F and T(F) = 3 is visited, with zero failures of
    the at-least-three-abundant-elements statement.  The run is
    interrupted at its middle job and resumed from its checkpoint to
    prove resumability; a single core finished it in 0.41 to 0.69 s in
    eighteen runs on a shared 2-vCPU Intel Xeon VM (Python 3.11.7), far
    inside the 8-worker hour."""
    c = EnumerationConstraints(6, 3, up_to_iso=True)
    checkpoint = str(tmp_path / "flagship.ck")
    jobs = subtree_jobs(c)
    with interrupt_at_job(jobs[len(jobs) // 2]):
        run_campaign(c, checkpoint=checkpoint)
    report = run_campaign(c, checkpoint=checkpoint)

    assert report.counterexamples == []
    assert report.families_total == FLAGSHIP_TOTAL
    assert report.families_by_T == FLAGSHIP_BY_T
    assert report.families_by_shape == FLAGSHIP_BY_SHAPE
    assert sum(report.families_by_shape.values()) == report.families_by_T[3]
    assert set(report.families_by_shape) <= set(SHAPE_TAGS)
    assert hashlib.sha256(report.body_bytes()).hexdigest() == FLAGSHIP_BODY_SHA256

    # classes with T >= 4 must equal the independent t=4 and t=5 runs
    by_t = report.families_by_T
    for t in (4, 5):
        c = EnumerationConstraints(6, t, up_to_iso=True)
        assert sum(by_t[k] for k in range(t, 7)) == sum(enumerate_job(c, job) for job in subtree_jobs(c))
    print(
        f"ACCEPTANCE 1: n=6 t=3 exhaustive, {report.families_total} classes, "
        f"0 counterexamples: PASS"
    )


def test_criterion_1_flagship_counts_agree_with_the_ascending_walk():
    """The ascending-order walk of tests/oracles.py, with its own
    candidate order, closure rule and orbit representatives, finds the
    same n=6 t=3 classes and the same split by T(F) as the campaign."""
    total, by_t = asc_by_t(EnumerationConstraints(6, 3, up_to_iso=True))
    assert total == FLAGSHIP_TOTAL
    assert by_t == FLAGSHIP_BY_T
    print(f"ACCEPTANCE 1b: ascending walk finds the same {total} classes and T split: PASS")


def test_criterion_2_prior_cases_n5_and_n4():
    """Full n=5 (all t >= 2) and n=4 campaigns: zero counterexamples,
    totals pinned."""
    for n, expected in ((5, N5_TOTALS), (4, N4_TOTALS)):
        for t, total in expected.items():
            report = run_campaign(EnumerationConstraints(n, t))
            assert report.counterexamples == [], f"n={n} t={t}"
            assert report.families_total == total, f"n={n} t={t}"
            assert sum(report.families_by_T.values()) == total
    print("ACCEPTANCE 2: n=5 (t>=2) and n=4 campaigns, 0 counterexamples: PASS")


def test_criterion_2_labelled_n5_t2_body_is_pinned():
    """The labelled n=5 t=2 campaign with every check has the same body
    bytes at 1 and 2 workers, pinned by their sha256."""
    c = EnumerationConstraints(5, 2)
    for workers in (1, 2):
        report = run_campaign(c, ("frankl", "s_frankl", "lemma_1_2_spot"), workers=workers)
        assert hashlib.sha256(report.body_bytes()).hexdigest() == N5_T2_BODY_SHA256, workers
    print("ACCEPTANCE 2b: n=5 t=2 labelled body sha256 pinned at 1 and 2 workers: PASS")


def test_criterion_3_oracle_equivalence_n_le_4():
    """The orderly search and the brute-force subset scan agree in
    count, family multiset, and canonical-key multiset on every
    configuration with n <= 4."""
    checked = 0
    for n in (2, 3, 4):
        for t in range(1, n + 1):
            for iso in (False, True):
                c = EnumerationConstraints(n, t, up_to_iso=iso)
                oracle = brute_force_enumerate(c)
                search = collect(c)
                assert len(oracle) == len(search), c
                assert Counter(f.members for f in oracle) == Counter(
                    f.members for f in search
                ), c
                assert Counter(canonical_form(f) for f in oracle) == Counter(
                    canonical_form(f) for f in search
                ), c
                checked += 1
    assert checked == 18
    print(f"ACCEPTANCE 3a: oracle equivalence on all {checked} n<=4 configurations: PASS")


@pytest.mark.parametrize("t,raw,iso", [(5, 64, 7), (4, 111820, 464)])
def test_criterion_3_oracle_equivalence_n6_slices(t, raw, iso):
    """The constrained n=6 slices (candidate pools of 7 and 22 sets)
    agree between the two routes as well.  Family multisets are
    compared directly; canonical keys are pure functions of the member
    masks, so equal multisets have equal key multisets, and the
    isomorph-free runs compare those keys explicitly."""
    c = EnumerationConstraints(6, t)
    oracle = brute_force_enumerate(c)
    search = collect(c)
    assert len(oracle) == len(search) == raw
    assert Counter(f.members for f in oracle) == Counter(f.members for f in search)

    c_iso = EnumerationConstraints(6, t, up_to_iso=True)
    oracle_keys = [canonical_form(f) for f in brute_force_enumerate(c_iso)]
    search_keys = [canonical_form(f) for f in collect(c_iso)]
    assert Counter(oracle_keys) == Counter(search_keys)
    assert len(search_keys) == iso
    print(f"ACCEPTANCE 3b: oracle equivalence at n=6 t={t} ({raw}/{iso}): PASS")


def test_criterion_4_lemma_1_2_exhaustive_suite():
    """For every M inside a 7-element universe with |M| >= 2 and every
    co-atom family G with |G| >= 2: each element of M belongs to at
    least |G| - 1 co-atoms.  The minimum frequency is recounted
    independently of the lemma implementation."""
    cases = 0
    for m_mask in range(1 << 7):
        bits = [b for b in range(7) if m_mask >> b & 1]
        if len(bits) < 2:
            continue
        coatoms = [m_mask ^ (1 << b) for b in bits]
        for size in range(2, len(coatoms) + 1):
            for combo in itertools.combinations(coatoms, size):
                result = lemma_1_2_bound(m_mask, SetFamily.from_masks(7, combo))
                assert result.holds, (m_mask, combo)
                recount = min(
                    sum(1 for mask in combo if mask >> b & 1) for b in bits
                )
                assert result.min_freq == recount
                assert recount >= size - 1
                cases += 1
    assert cases == 1611
    print(f"ACCEPTANCE 4: lemma bound on all {cases} (M, G) cases, 0 violations: PASS")


def test_criterion_5_worked_example_fidelity():
    """The four families worked through explicitly in the n=6, T=3
    analysis each pass check_single with the stated abundant elements."""

    def closed_with_empty(*sets_):
        closed = union_closure(SetFamily.from_sets(6, sets_))
        return SetFamily.from_masks(6, (0,) + closed.members)

    f1 = SetFamily.from_sets(6, [[], [1, 2, 3], [1, 2, 3, 4, 5, 6]])
    f2 = SetFamily.from_sets(6, [[], [1, 2, 3], [4, 5, 6], [1, 2, 3, 4, 5, 6]])
    f3 = closed_with_empty([1, 2, 3], [1, 4, 5], [2, 4, 6], [3, 5, 6])
    f4 = closed_with_empty([1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 2, 3, 4, 5])

    expected = [
        (f1, 3, (1, 2, 3), (2, 2, 2)),
        (f2, 4, (1, 2, 3, 4, 5, 6), (2, 2, 2, 2, 2, 2)),
        (f3, 12, (1, 2, 3, 4, 5, 6), (8, 8, 8, 8, 8, 8)),
        (f4, 8, (1, 2, 3, 4, 5), (7, 7, 4, 4, 4)),
    ]
    for family, m, elements, counts in expected:
        record = check_single(family)
        assert record.was_union_closed
        assert record.verdict == "pass"
        assert record.t == 3
        assert record.m == m
        assert record.witness is not None
        assert record.witness.elements == elements
        assert record.witness.counts == counts
        assert all(2 * f >= m for f in counts)
    print("ACCEPTANCE 5: all 4 worked families check out with stated witnesses: PASS")


def test_criterion_6_determinism_across_workers_and_orders():
    """Report bodies are byte-identical across worker counts {1, 2, 8},
    and their totals and split by T(F) equal those of the independent
    ascending walk of tests/oracles.py."""
    c = EnumerationConstraints(4, 1)
    reports = [run_campaign(c, workers=workers) for workers in (1, 2, 8)]
    assert all(r.body_bytes() == reports[0].body_bytes() for r in reports)
    assert (reports[0].families_total, reports[0].families_by_T) == asc_by_t(c)
    print("ACCEPTANCE 6: byte-identical bodies over workers {1,2,8}, totals = ascending walk: PASS")


def test_criterion_7_property_suite():
    """Seeded deterministic sweep of the structural invariants:
    closure idempotence and minimality, relabeling equivariance,
    matching validity and maximality, canonical-key orbit invariance
    under all 24 permutations at n = 4."""
    rng = random.Random(20260819)

    def random_family(n: int, max_size: int = 8) -> SetFamily:
        k = rng.randrange(max_size + 1)
        return SetFamily.from_masks(
            n, (rng.randrange(1 << n) for _ in range(k))
        )

    # closure idempotence and minimality
    for _ in range(300):
        n = rng.choice((2, 3, 4, 5))
        family = random_family(n)
        closed = union_closure(family)
        assert is_union_closed(closed)
        assert union_closure(closed) == closed
        naive = naive_closure(set(as_frozensets(family)))
        assert as_frozensets(closed) == naive

    # relabeling equivariance of T, frequencies, and verdicts
    for _ in range(200):
        n = rng.choice((3, 4, 5))
        family = random_family(n)
        perm = list(range(n))
        rng.shuffle(perm)
        image = relabel_family(family, perm)
        try:
            t = t_value(family)
        except NoNonemptyMember:
            t = None
        if t is None:
            continue
        assert t_value(image) == t
        assert sorted(frequency_profile(image).freq) == sorted(
            frequency_profile(family).freq
        )
        assert frankl_holds(image) == frankl_holds(family)
        if t >= 2:
            assert s_frankl_holds(image) == s_frankl_holds(family)

    # matching validity and brute-force maximality on slices <= 10
    target = full_mask(6)
    for _ in range(150):
        size = rng.randrange(11)
        masks = rng.sample(range(64), size)
        d = pair_decompose(masks, target)
        flat = [m for pair in d.pairs for m in pair] + list(d.residue)
        assert sorted(flat) == sorted(masks)
        assert all(a | b == target for a, b in d.pairs)
        assert d.k == max_matching_by_recursion(masks, target)

    # canonical-key orbit invariance over the whole of S_4
    for _ in range(100):
        family = random_family(4)
        key = canonical_form(family)
        for perm in itertools.permutations(range(4)):
            assert canonical_form(relabel_family(family, perm)) == key

    print("ACCEPTANCE 7: property suite (closure/relabel/matching/canonical): PASS")
