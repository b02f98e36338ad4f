from __future__ import annotations

import ucf

# second names for facts that another name gives, campaign plumbing that
# its callers import from ucf.enumeration, and names only tests called
RETIRED = (
    "CanonicalKey",
    "canonical_key",
    "ShapeClass",
    "DegenerateFamily",
    "NotApplicable",
    "job_label",
    "relabel_mask",
    "relabel_family",
    "job_depth",
    "subtree_jobs",
    "enumerate_job",
    "ensure_enumerable",
    "BRUTE_FORCE_POOL_CAP",
    "CampaignIncomplete",
    "LevelProfile",
)


def test_all_has_no_duplicates():
    assert len(ucf.__all__) == len(set(ucf.__all__))


def test_every_exported_name_resolves():
    for name in ucf.__all__:
        assert getattr(ucf, name) is not None, name


def test_retired_names_are_not_reachable():
    for name in RETIRED:
        assert name not in ucf.__all__, name
        assert not hasattr(ucf, name), name
