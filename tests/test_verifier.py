from __future__ import annotations

import itertools
import json
import os

import pytest

import ucf.verifier as verifier
from oracles import asc_by_t
from ucf import (
    SHAPE_TAGS,
    EnumerationConstraints,
    InfeasibleScale,
    PreconditionViolation,
    SetFamily,
    VerificationReport,
    brute_force_enumerate,
    check_single,
    frankl_holds,
    frequency_profile,
    parse_family,
    run_campaign,
    s_frankl_holds,
    union_closure,
)
from ucf.enumeration import subtree_jobs

N3T1 = EnumerationConstraints(3, 1)

# the first three jobs of a run_campaign(EnumerationConstraints(4, 2),
# checkpoint=...) stopped after three subtrees, as written while
# campaigns still took a candidate order and a lemma sampling rate
OLD_N4T2_CHECKPOINT = (
    '# campaign {"checks": ["frankl", "s_frankl"], "depth": 4, "lemma_every": 1, "n": 4, '
    '"order": "desc", "require_universe": true, "t": 2, "up_to_iso": false}\n'
    "subtree=- count=20\n"
    '# agg {"by_shape": {}, "by_t": {"2": 18, "3": 1, "4": 1}, "count": 20, "failures": [], "job": 0, "label": "-"}\n'
    "subtree=14 count=23\n"
    '# agg {"by_shape": {}, "by_t": {"2": 21, "3": 2}, "count": 23, "failures": [], "job": 1, "label": "14"}\n'
    "subtree=13 count=23\n"
    '# agg {"by_shape": {}, "by_t": {"2": 21, "3": 2}, "count": 23, "failures": [], "job": 2, "label": "13"}\n'
)


def always_fail(t: int, abundant: int) -> bool:
    """A check predicate that fails every family."""
    return False


class TestRunCampaign:
    def test_totals_match_oracle(self):
        report = run_campaign(N3T1)
        assert report.families_total == len(brute_force_enumerate(N3T1))
        assert sum(report.families_by_T.values()) == report.families_total
        assert report.counterexamples == []
        assert report.families_by_shape is None

    def test_by_t_breakdown(self):
        report = run_campaign(EnumerationConstraints(4, 2))
        # every T value in the breakdown respects the t floor
        assert all(k >= 2 for k in report.families_by_T)
        assert report.families_by_T[4] == 1  # only {0, M_4}

    def test_shape_statistics_absent_outside_n6_t3(self):
        report = run_campaign(EnumerationConstraints(6, 4, up_to_iso=True))
        assert report.families_by_shape is None

    def test_shape_statistics_accumulate_per_job(self):
        # one subtree of the n=6, t=3 campaign exercises the shape
        # tally; the full campaign is covered by the acceptance suite
        payload = (EnumerationConstraints(6, 3, up_to_iso=True), ("frankl", "s_frankl"), False, 0)
        record = verifier._job_worker(payload)
        assert record["count"] > 0
        assert set(record["by_shape"]) <= set(SHAPE_TAGS)
        assert sum(record["by_shape"].values()) == record["by_t"].get(3, 0)

    def test_unknown_check_rejected(self):
        with pytest.raises(PreconditionViolation):
            run_campaign(N3T1, checks=("frankl", "nonsense"))
        with pytest.raises(PreconditionViolation, match="listed twice"):
            run_campaign(N3T1, checks=("frankl", "frankl"))

    def test_workers_below_one_rejected(self):
        for workers in (0, -3):
            with pytest.raises(PreconditionViolation, match="workers"):
                run_campaign(N3T1, workers=workers)

    def test_pool_never_outnumbers_the_jobs_left(self, tmp_path, monkeypatch):
        sizes = []

        class NoPool:
            def Pool(self, processes):
                sizes.append(processes)
                raise RuntimeError("no pool is started here")

        monkeypatch.setattr(verifier.multiprocessing, "get_context", lambda method: NoPool())
        c = EnumerationConstraints(4, 2)
        assert len(subtree_jobs(c)) == 16
        ck = tmp_path / "run.ck"
        ck.write_text(OLD_N4T2_CHECKPOINT)  # 3 of the 16 jobs done
        for workers, checkpoint in ((64, None), (3, None), (64, str(ck))):
            with pytest.raises(RuntimeError, match="no pool"):
                run_campaign(c, workers=workers, checkpoint=checkpoint)
        assert sizes == [16, 3, 13]

    def test_envelope_enforced(self):
        with pytest.raises(InfeasibleScale):
            run_campaign(EnumerationConstraints(7, 3))

    def test_lemma_check_runs_clean(self):
        report = run_campaign(N3T1, checks=("frankl", "s_frankl", "lemma_1_2_spot"))
        assert report.counterexamples == []

    def test_workers_do_not_change_the_body(self):
        c = EnumerationConstraints(4, 1)
        serial = run_campaign(c, workers=1)
        pooled = run_campaign(c, workers=2)
        assert serial.body_bytes() == pooled.body_bytes()

    def test_orders_do_not_change_the_body(self):
        # the body's totals are those of the ascending walk of tests/oracles.py
        c = EnumerationConstraints(4, 2)
        report = run_campaign(c)
        assert (report.families_total, report.families_by_T) == asc_by_t(c)


class TestReportShape:
    def test_body_excludes_run_metadata(self):
        report = run_campaign(N3T1, workers=1)
        body = report.body_dict()
        assert "wall_time" not in body and "workers" not in body and "order" not in body
        full = report.to_dict()
        assert full["workers"] == 1 and full["order"] == "desc"
        assert isinstance(full["wall_time"], float)

    def test_to_json_round_trips(self):
        report = run_campaign(N3T1)
        data = json.loads(report.to_json())
        assert data["families_total"] == report.families_total
        assert data["constraints"]["n"] == 3

    def test_by_t_keys_are_strings_in_the_body(self):
        report = run_campaign(N3T1)
        assert all(isinstance(k, str) for k in report.body_dict()["families_by_T"])


class TestCounterexamplePlumbing:
    def test_failures_are_recorded_sorted_and_dumped(self, tmp_path, monkeypatch):
        monkeypatch.setitem(verifier.CHECK_FNS, "frankl", always_fail)
        ce_dir = tmp_path / "ces"
        report = run_campaign(N3T1, checks=("frankl",), counterexample_dir=str(ce_dir))
        assert len(report.counterexamples) == report.families_total
        keys = [(r["check"], r["family"]) for r in report.counterexamples]
        assert keys == sorted(keys)
        dumps = list(ce_dir.iterdir())
        assert len(dumps) == report.families_total
        assert all(p.name.startswith("ce-") and p.suffix == ".family" for p in dumps)

    def test_dump_replays_to_the_recorded_profile(self, tmp_path, monkeypatch):
        monkeypatch.setitem(verifier.CHECK_FNS, "frankl", always_fail)
        ce_dir = tmp_path / "ces"
        report = run_campaign(N3T1, checks=("frankl",), counterexample_dir=str(ce_dir))
        record = report.counterexamples[0]
        match = None
        for path in ce_dir.iterdir():
            text = path.read_text()
            assert text.startswith("# failed check: frankl\n")
            family = parse_family(text)
            if verifier.format_family(family) == record["family"]:
                match = family
        assert match is not None
        prof = frequency_profile(match)
        assert list(prof.freq) == record["freq"]
        assert prof.m == record["m"]
        assert sorted(prof.abundant) == record["abundant"]

    def test_forced_failures_name_the_canonical_families(self, monkeypatch):
        monkeypatch.setitem(verifier.CHECK_FNS, "frankl", always_fail)
        c = EnumerationConstraints(4, 2, up_to_iso=True)
        report = run_campaign(c, checks=("frankl",))
        families = sorted(verifier.format_family(f) for f in brute_force_enumerate(c))
        assert [r["family"] for r in report.counterexamples] == families

    def test_real_run_finds_nothing(self, tmp_path):
        ce_dir = tmp_path / "ces"
        report = run_campaign(
            EnumerationConstraints(4, 1), counterexample_dir=str(ce_dir)
        )
        assert report.counterexamples == []
        assert not ce_dir.exists()  # directory only appears on demand


class TestCheckpoint:
    def test_split_run_resumes_to_identical_body(self, tmp_path, interrupt_at_job):
        c = EnumerationConstraints(4, 1)
        ck = str(tmp_path / "run.ck")
        with interrupt_at_job(5):
            run_campaign(c, checkpoint=ck)
        text = open(ck).read().splitlines()
        assert text[0].startswith("# campaign ")
        # the header, then one record line per finished job
        assert len(text) == 1 + 5
        assert sum(1 for ln in text if ln.startswith("# agg ")) == 5
        resumed = run_campaign(c, checkpoint=ck)
        fresh = run_campaign(c)
        assert resumed.body_bytes() == fresh.body_bytes()

    def test_interrupted_pool_run_resumes_to_identical_body(self, tmp_path, interrupt_at_job):
        c = EnumerationConstraints(5, 2)
        ck = str(tmp_path / "run.ck")
        failed = 511  # a nonempty subtree mid-campaign
        with interrupt_at_job(failed):
            run_campaign(c, workers=2, checkpoint=ck)
        jobs = [json.loads(ln[len("# agg "):])["job"] for ln in open(ck) if ln.startswith("# agg ")]
        assert len(jobs) < len(subtree_jobs(c))
        assert failed not in jobs
        resumed = run_campaign(c, workers=2, checkpoint=ck)
        assert resumed.body_bytes() == run_campaign(c).body_bytes()

    def test_finished_checkpoint_makes_rerun_instant(self, tmp_path):
        c = EnumerationConstraints(4, 2)
        ck = str(tmp_path / "run.ck")
        first = run_campaign(c, checkpoint=ck)
        again = run_campaign(c, checkpoint=ck)
        assert again.body_bytes() == first.body_bytes()

    def test_header_mismatch_rejected(self, tmp_path):
        ck = str(tmp_path / "run.ck")
        run_campaign(EnumerationConstraints(4, 2), checkpoint=ck)
        with pytest.raises(PreconditionViolation):
            run_campaign(EnumerationConstraints(4, 3), checkpoint=ck)

    def test_old_checkpoint_resumes(self, tmp_path):
        c = EnumerationConstraints(4, 2)
        ck = tmp_path / "run.ck"
        ck.write_text(OLD_N4T2_CHECKPOINT)
        resumed = run_campaign(c, checkpoint=str(ck))
        assert resumed.body_bytes() == run_campaign(c).body_bytes()
        text = ck.read_text()
        assert text.startswith(OLD_N4T2_CHECKPOINT)
        assert text.count("# agg ") == len(subtree_jobs(c))

    def test_headerless_nonempty_checkpoint_rejected(self, tmp_path):
        ck = tmp_path / "run.ck"
        ck.write_text("subtree=- count=3\n")
        with pytest.raises(PreconditionViolation):
            run_campaign(EnumerationConstraints(4, 2), checkpoint=str(ck))

    def test_torn_checkpoint_resumes_at_every_byte(self, tmp_path):
        c = EnumerationConstraints(4, 2)
        ck = tmp_path / "run.ck"
        fresh = run_campaign(c, checkpoint=str(ck)).body_bytes()
        data = ck.read_bytes()
        for cut in range(len(data)):
            ck.write_bytes(data[:cut])
            assert run_campaign(c, checkpoint=str(ck)).body_bytes() == fresh, cut
            lines = ck.read_text().splitlines(keepends=True)
            assert lines[0].startswith("# campaign ") and lines[-1].endswith("\n"), cut
            assert sum(1 for ln in lines if ln.startswith("# agg ")) == len(subtree_jobs(c)), cut

    def test_foreign_unterminated_file_is_not_truncated(self, tmp_path):
        ck = tmp_path / "run.ck"
        ck.write_text("not a checkpoint")
        with pytest.raises(PreconditionViolation):
            run_campaign(EnumerationConstraints(4, 2), checkpoint=str(ck))
        assert ck.read_text() == "not a checkpoint"

    def test_bad_job_records_rejected(self, tmp_path):
        c = EnumerationConstraints(4, 2)
        ck = tmp_path / "run.ck"
        run_campaign(c, checkpoint=str(ck))
        lines = ck.read_text().splitlines(keepends=True)
        agg = next(ln for ln in lines if ln.startswith("# agg "))
        ck.write_text("".join(lines) + agg)
        with pytest.raises(PreconditionViolation, match="recorded twice"):
            run_campaign(c, checkpoint=str(ck))
        record = json.loads(agg[len("# agg "):])
        for job in (len(subtree_jobs(c)), -1, "0"):
            record["job"] = job
            ck.write_text(lines[0] + f"# agg {json.dumps(record)}\n")
            with pytest.raises(PreconditionViolation, match="outside"):
                run_campaign(c, checkpoint=str(ck))
        good = json.loads(agg[len("# agg "):])
        bad_records = [
            [],
            {"job": 3},
            {**good, "count": -1},
            {**good, "count": True},
            {**good, "count": good["count"] + 1},  # by_t no longer sums to count
            {**good, "by_t": {"5": good["count"]}},
            {**good, "by_t": {"02": good["count"]}},
            {**good, "by_shape": {"G4": 1}},
            {**good, "by_shape": {"G3": "1"}},
            {**good, "failures": {}},
            {**good, "failures": [{"check": "frankl"}]},
            {**good, "failures": [{"check": 1, "family": ""}]},
        ]
        for bad in [*map(json.dumps, bad_records), "{"]:
            ck.write_text(lines[0] + f"# agg {bad}\n")
            with pytest.raises(PreconditionViolation, match="line 2"):
                run_campaign(c, checkpoint=str(ck))
        # after the header, only job records and legacy subtree= lines
        stray = [
            (lines[0] + "garbage line\n" + lines[0], "line 2"),
            (lines[0] + agg + lines[0], "line 3"),
            (lines[0] + "\n" + agg, "line 2"),
            ("garbage line\n" + "".join(lines), "no campaign header"),
            (agg + lines[0], "no campaign header"),
        ]
        for text, match in stray:
            ck.write_text(text)
            with pytest.raises(PreconditionViolation, match=match):
                run_campaign(c, checkpoint=str(ck))
            assert ck.read_text() == text

    def test_count_lines_alone_do_not_mark_jobs_done(self, tmp_path):
        # legacy subtree=... count=... lines without their aggregate
        # records do not mark jobs done: every job runs again
        c = EnumerationConstraints(4, 2)
        ck = tmp_path / "run.ck"
        kept = [ln for ln in OLD_N4T2_CHECKPOINT.splitlines(keepends=True) if not ln.startswith("# agg ")]
        assert sum(1 for ln in kept if ln.startswith("subtree=")) == 3
        ck.write_text("".join(kept))
        report = run_campaign(c, checkpoint=str(ck))
        assert report.body_bytes() == run_campaign(c).body_bytes()
        assert ck.read_text().count("# agg ") == len(subtree_jobs(c))


class TestCheckSingle:
    def test_closed_passing_family(self):
        f = SetFamily.from_sets(6, [[], [1, 2, 3], [1, 2, 3, 4, 5, 6]])
        record = check_single(f)
        assert record.was_union_closed
        assert record.closure_added == ()
        assert record.t == 3
        assert record.verdict == "pass"
        assert record.frankl is True and record.s_frankl is True
        assert record.shape == "G3"
        assert record.witness is not None
        assert record.witness.elements == (1, 2, 3)

    def test_open_family_gets_closed_first(self):
        f = SetFamily.from_sets(4, [[1, 2], [3, 4]])
        record = check_single(f)
        assert not record.was_union_closed
        assert record.closure_added == (15,)
        assert record.closed == union_closure(f)
        assert any("not union-closed" in note for note in record.notes)
        assert record.verdict == "pass"

    def test_degenerate_family(self):
        record = check_single(SetFamily(3, (0,)))
        assert record.t is None
        assert record.verdict == "not-applicable"
        assert record.frankl is None and record.s_frankl is None

    def test_t1_family_skips_s_frankl(self):
        record = check_single(SetFamily.from_sets(3, [[1], [1, 2]]))
        assert record.t == 1
        assert record.s_frankl is None
        assert record.frankl is True
        assert record.verdict == "pass"
        assert any("T(F)=1" in note for note in record.notes)

    def test_decomposition_covers_the_t_slice(self):
        f = SetFamily.from_sets(6, [[], [1, 2, 3], [4, 5, 6], [1, 2, 3, 4, 5, 6]])
        record = check_single(f)
        assert record.decomposition is not None
        assert record.decomposition.k == 1
        assert record.decomposition.target == 63

    def test_dense_slice_gets_a_note_instead_of_a_decomposition(self):
        # {} plus every >=5-subset of {1..8}: a 56-mask T-slice
        f = SetFamily.from_sets(8, [[]] + [s for r in range(5, 9) for s in itertools.combinations(range(1, 9), r)])
        record = check_single(f)
        assert record.t == 5 and record.verdict == "pass"
        assert record.decomposition is None
        assert any("no pair decomposition" in note for note in record.notes)

    def test_to_dict_uses_one_based_labels(self):
        f = SetFamily.from_sets(6, [[], [1, 2, 3], [4, 5, 6], [1, 2, 3, 4, 5, 6]])
        out = check_single(f).to_dict()
        assert out["decomposition"]["pairs"] == [[[1, 2, 3], [4, 5, 6]]]
        assert out["witness"]["elements"] == [1, 2, 3, 4, 5, 6]
        assert out["verdict"] == "pass"
        json.dumps(out)  # fully serializable

    def test_failing_check_yields_fail_verdict(self, monkeypatch):
        # no real counterexample exists at these scales, so force one
        monkeypatch.setitem(verifier.CHECK_FNS, "frankl", always_fail)
        record = check_single(SetFamily.from_sets(3, [[1], [1, 2]]))
        assert record.verdict == "fail"

    def test_verdicts_agree_with_the_core_statements(self):
        closed = [f for c in (EnumerationConstraints(4, 1), EnumerationConstraints(5, 3)) for f in brute_force_enumerate(c)]
        assert len(closed) == 2271 + 4945
        open_ = [
            SetFamily.from_sets(4, [[1, 2], [3, 4]]),
            SetFamily.from_sets(5, [[], [1], [2, 3], [4, 5]]),
            SetFamily.from_sets(6, [[1, 2, 3], [4, 5, 6], [1, 4]]),
        ]
        for family in closed + open_:
            record = check_single(family)
            target = union_closure(family)
            assert record.frankl == frankl_holds(target)
            if record.t == 1:
                assert record.s_frankl is None
            else:
                assert record.s_frankl == s_frankl_holds(target)
            assert record.verdict == ("pass" if record.frankl and record.s_frankl is not False else "fail")
        record = check_single(SetFamily(4, (0,)))
        assert record.frankl is None and record.s_frankl is None
        assert record.verdict == "not-applicable"


class TestReportConstruction:
    def test_body_is_deterministic_json(self):
        report = VerificationReport(
            constraints=N3T1,
            checks=("frankl",),
            families_total=1,
            families_by_T={1: 1},
            families_by_shape=None,
            counterexamples=[],
            wall_time=0.5,
            workers=3,
        )
        assert json.loads(report.body_bytes()) == report.body_dict()
        clone = VerificationReport(
            constraints=N3T1,
            checks=("frankl",),
            families_total=1,
            families_by_T={1: 1},
            families_by_shape=None,
            counterexamples=[],
            wall_time=9.9,
            workers=1,
        )
        assert clone.body_bytes() == report.body_bytes()
