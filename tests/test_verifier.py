from __future__ import annotations

import concurrent.futures
import hashlib
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import time
from collections import Counter

import pytest

import ucf.core as core
import ucf.decomposition as decomposition
import ucf.verifier as verifier
from oracles import asc_by_t
from ucf import (
    SHAPE_TAGS,
    EnumerationConstraints,
    InfeasibleScale,
    NoNonemptyMember,
    PreconditionViolation,
    SetFamily,
    VerificationReport,
    abundance_witness,
    brute_force_enumerate,
    check_single,
    frankl_holds,
    frequency_profile,
    parse_family,
    run_campaign,
    s_frankl_holds,
    t_value,
    union_closure,
)
from ucf.cli import main
from ucf.enumeration import KEY_MASK, enumerate_job, job_depth, split_counts, subtree_jobs

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

# the first twelve jobs of a run_campaign(EnumerationConstraints(6, 4,
# up_to_iso=True), checkpoint=...) stopped after them, as written while
# every campaign split at depth 10, recorded its empty jobs too and
# walked up-to-iso candidates in descending mask order
OLD_N6T4_ISO_CHECKPOINT = (
    '# campaign {"checks": ["frankl", "s_frankl"], "depth": 10, "lemma_every": 1, "n": 6, '
    '"order": "desc", "require_universe": true, "t": 4, "up_to_iso": true}\n'
    '# agg {"by_shape": {}, "by_t": {"6": 1}, "count": 1, "failures": [], "job": 0}\n'
    '# agg {"by_shape": {}, "by_t": {"5": 1}, "count": 1, "failures": [], "job": 1}\n'
    '# agg {"by_shape": {}, "by_t": {}, "count": 0, "failures": [], "job": 2}\n'
    '# agg {"by_shape": {}, "by_t": {"5": 1}, "count": 1, "failures": [], "job": 3}\n'
    '# agg {"by_shape": {}, "by_t": {"4": 1}, "count": 1, "failures": [], "job": 4}\n'
    '# agg {"by_shape": {}, "by_t": {"4": 1}, "count": 1, "failures": [], "job": 5}\n'
    '# agg {"by_shape": {}, "by_t": {}, "count": 0, "failures": [], "job": 6}\n'
    '# agg {"by_shape": {}, "by_t": {"4": 1}, "count": 1, "failures": [], "job": 7}\n'
    '# agg {"by_shape": {}, "by_t": {}, "count": 0, "failures": [], "job": 8}\n'
    '# agg {"by_shape": {}, "by_t": {}, "count": 0, "failures": [], "job": 9}\n'
    '# agg {"by_shape": {}, "by_t": {}, "count": 0, "failures": [], "job": 10}\n'
    '# agg {"by_shape": {}, "by_t": {"4": 1, "5": 1}, "count": 2, "failures": [], "job": 11}\n'
)


# the first twelve nonempty jobs of the same campaign as it would split at
# depth 10 in size-major order: no version wrote it, and a checkpoint
# resumes only at job_depth(c), 15 here, so it is refused input
N6T4_ISO_DEPTH10_CHECKPOINT = (
    '# campaign {"checks": ["frankl", "s_frankl"], "depth": 10, "lemma_every": 1, "n": 6, '
    '"order": "levels", "require_universe": true, "t": 4, "up_to_iso": true}\n'
    '# agg {"by_shape": {}, "by_t": {"6": 1}, "count": 1, "failures": [], "job": 0}\n'
    '# agg {"by_shape": {}, "by_t": {"5": 1}, "count": 1, "failures": [], "job": 1}\n'
    '# agg {"by_shape": {}, "by_t": {"4": 2, "5": 1}, "count": 3, "failures": [], "job": 3}\n'
    '# agg {"by_shape": {}, "by_t": {"4": 1, "5": 1}, "count": 2, "failures": [], "job": 7}\n'
    '# agg {"by_shape": {}, "by_t": {"4": 4, "5": 1}, "count": 5, "failures": [], "job": 15}\n'
    '# agg {"by_shape": {}, "by_t": {"4": 1, "5": 1}, "count": 2, "failures": [], "job": 31}\n'
    '# agg {"by_shape": {}, "by_t": {"5": 1}, "count": 1, "failures": [], "job": 63}\n'
    '# agg {"by_shape": {}, "by_t": {"4": 3}, "count": 3, "failures": [], "job": 64}\n'
    '# agg {"by_shape": {}, "by_t": {"4": 3}, "count": 3, "failures": [], "job": 65}\n'
    '# agg {"by_shape": {}, "by_t": {"4": 3}, "count": 3, "failures": [], "job": 67}\n'
    '# agg {"by_shape": {}, "by_t": {"4": 6}, "count": 6, "failures": [], "job": 71}\n'
    '# agg {"by_shape": {}, "by_t": {"4": 15}, "count": 15, "failures": [], "job": 79}\n'
)


def always_fail(t: int, abundant: int) -> bool:
    """A check predicate that fails every family."""
    return False


def counted(calls: Counter, name: str, fn):
    """fn, counting its calls in calls[name]."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def fail_at_bound(t: int, abundant: int) -> bool:
    """A check predicate that fails the families with at most T(F)
    abundant elements, those at the s_frankl bound."""
    return abundant > t


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
        c = EnumerationConstraints(6, 3, up_to_iso=True)
        payload = (c, verifier._failing(6, ("frankl", "s_frankl")), 0)
        record = verifier._job_worker(payload)
        assert record["count"] > 0
        assert set(record["by_shape"]) <= set(SHAPE_TAGS)
        assert sum(record["by_shape"].values()) == record["by_t"].get(3, 0)

    def test_job_tally_must_match_the_walk_count(self, monkeypatch):
        # a walk that counts one family more than its key tally holds is a bug, not a record
        real = verifier.enumerate_job
        monkeypatch.setattr(verifier, "enumerate_job", lambda *args, **kwargs: real(*args, **kwargs) + 1)
        c = EnumerationConstraints(4, 2)
        payload = (c, verifier._failing(4, ("frankl", "s_frankl")), subtree_jobs(c)[0])
        with pytest.raises(AssertionError, match="disagrees with count"):
            verifier._job_worker(payload)

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
            def __init__(self, max_workers, mp_context=None, **kwargs):
                sizes.append(max_workers)
                raise RuntimeError("no pool is started here")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        c = EnumerationConstraints(4, 2)
        assert len(subtree_jobs(c)) == 16
        ck = tmp_path / "run.ck"
        ck.write_text(OLD_N4T2_CHECKPOINT)  # 3 of the 16 jobs done
        for workers, checkpoint in ((64, None), (3, None), (64, str(ck))):
            with pytest.raises(RuntimeError, match="no pool"):
                run_campaign(c, workers=workers, checkpoint=checkpoint)
        assert sizes == [16, 3, 13]

    def test_envelope_enforced(self, monkeypatch):
        # the census-scale guard runs before any job: enumerate_job has none
        def no_job(*args, **kwargs):
            raise AssertionError("a job ran before the census-scale guard")

        monkeypatch.setattr(verifier, "enumerate_job", no_job)
        with pytest.raises(InfeasibleScale):
            run_campaign(EnumerationConstraints(6, 2))

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

    def test_order_names_the_candidate_order(self, capsys):
        # up-to-iso walks decide candidates size-major; the summary line says the same
        iso = EnumerationConstraints(3, 1, up_to_iso=True)
        assert run_campaign(iso).to_dict()["order"] == "levels"
        for argv, order in ((["--up-to-iso"], "levels"), ([], "desc")):
            assert main(["verify", "--n", "3", "--t", "1", "--workers", "1", *argv]) == 0
            assert f"order: {order}\n" in capsys.readouterr().out

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
        # N3T1 has one job and runs serially; 16 jobs at 2 workers start a pool
        for i, (c, workers) in enumerate(((N3T1, 1), (EnumerationConstraints(4, 2), 2))):
            ce_dir = tmp_path / f"ces{i}"
            report = run_campaign(c, checks=("frankl",), workers=workers, counterexample_dir=str(ce_dir))
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

    def test_dumps_go_out_before_their_job_record(self, tmp_path, monkeypatch):
        # a run stopped between a job's dumps and its record redoes the job
        monkeypatch.setitem(verifier.CHECK_FNS, "frankl", always_fail)
        ck, ce_dir = str(tmp_path / "run.ck"), tmp_path / "ces"
        dump = verifier._dump_counterexample

        def out_of_disk(directory, failure):
            monkeypatch.setattr(verifier, "_dump_counterexample", dump)
            raise OSError("no space left on device")

        monkeypatch.setattr(verifier, "_dump_counterexample", out_of_disk)
        with pytest.raises(OSError, match="no space"):
            run_campaign(N3T1, checks=("frankl",), checkpoint=ck, counterexample_dir=str(ce_dir))
        report = run_campaign(N3T1, checks=("frankl",), checkpoint=ck, counterexample_dir=str(ce_dir))
        assert len(report.counterexamples) == report.families_total == 45
        assert len(list(ce_dir.glob("ce-*.family"))) == 45

    def test_forced_failures_name_the_canonical_families(self, monkeypatch):
        monkeypatch.setitem(verifier.CHECK_FNS, "frankl", always_fail)
        monkeypatch.setitem(verifier.CHECK_FNS, "s_frankl", always_fail)
        c = EnumerationConstraints(4, 2, up_to_iso=True)
        report = run_campaign(c, checks=("frankl", "s_frankl"))
        families = sorted(verifier.format_family(f) for f in brute_force_enumerate(c))
        # a family that fails two checks has one record per check
        records = [(r["check"], r["family"]) for r in report.counterexamples]
        assert records == [(check, family) for check in ("frankl", "s_frankl") for family in families]

    @pytest.mark.parametrize("c, found", [(EnumerationConstraints(5, 3, up_to_iso=True), 5), (EnumerationConstraints(4, 2), 29)])
    def test_failures_of_some_families_are_exactly_those(self, tmp_path, monkeypatch, c, found):
        # a check that fails some families only: each is found once, and
        # bodies, checkpoints and dumps do not depend on the worker count
        monkeypatch.setitem(verifier.CHECK_FNS, "s_frankl", fail_at_bound)
        runs = []
        for workers in (1, 2):
            ck, ce_dir = tmp_path / f"{workers}.ck", tmp_path / f"ces{workers}"
            report = run_campaign(c, workers=workers, checkpoint=str(ck), counterexample_dir=str(ce_dir))
            runs.append((report.body_bytes(), ck.read_bytes(), {p.name: p.read_bytes() for p in ce_dir.iterdir()}))
        assert runs[0] == runs[1]
        families = [
            f for f in brute_force_enumerate(c) if t_value(f) >= 2 and len(frequency_profile(f).abundant) <= t_value(f)
        ]
        assert len(families) == found
        assert [r["check"] for r in report.counterexamples] == ["s_frankl"] * found
        assert [r["family"] for r in report.counterexamples] == sorted(map(verifier.format_family, families))

    def test_flagship_failures_at_the_bound(self, monkeypatch):
        # the classes with exactly T(F) abundant elements, by (T, abundant)
        monkeypatch.setitem(verifier.CHECK_FNS, "s_frankl", fail_at_bound)
        report = run_campaign(EnumerationConstraints(6, 3, up_to_iso=True), workers=2)
        split = Counter((r["t"], len(r["abundant"])) for r in report.counterexamples)
        assert split == {(3, 3): 28, (4, 4): 4, (5, 5): 1, (6, 6): 1}

    def test_verdicts_are_read_once_per_distinct_counter_value(self, monkeypatch):
        # the walk's visit only tallies verdict keys, counts & KEY_MASK[n]; a
        # job walks again only when one of its keys fails, and builds only
        # the failing families
        c = EnumerationConstraints(4, 2)
        jobs = subtree_jobs(c)
        distinct = failing_jobs = 0
        for job in jobs:
            keys = set()
            enumerate_job(c, job, lambda present, counts: keys.add(counts & KEY_MASK[4]))
            distinct += len(keys)
            failing_jobs += any(not fail_at_bound(t, a) for _, _, _, t, a in (split_counts(4, k) for k in keys))
        # families that share keys within a job, against 353 distinct counter values
        assert distinct == 209 < 378
        calls = Counter()
        for name in ("split_counts", "node_family", "enumerate_job"):
            monkeypatch.setattr(verifier, name, counted(calls, name, getattr(verifier, name)))
        run_campaign(c)
        assert calls == {"split_counts": distinct, "enumerate_job": len(jobs)}
        calls.clear()
        monkeypatch.setitem(verifier.CHECK_FNS, "s_frankl", fail_at_bound)
        report = run_campaign(c)
        assert len(report.counterexamples) == 29 and 1 <= failing_jobs < len(jobs)
        assert calls == {"split_counts": distinct, "enumerate_job": len(jobs) + failing_jobs, "node_family": 29}

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

    def test_dead_pool_worker_fails_the_run(self, tmp_path):
        # a worker killed at job 5 (SIGKILL, or the OOM killer) must end the
        # run, not hang it; run apart, so a hang fails on the timeout
        code = """
import os, signal, sys
from concurrent.futures.process import BrokenProcessPool
import ucf.verifier as verifier
from ucf import EnumerationConstraints, run_campaign

c, ck = EnumerationConstraints(4, 1), sys.argv[1]
enumerate_job = verifier.enumerate_job

def job(c, j, *args, **kwargs):
    if j == 5:
        os.kill(os.getpid(), signal.SIGKILL)
    return enumerate_job(c, j, *args, **kwargs)

verifier.enumerate_job = job
try:
    run_campaign(c, workers=2, checkpoint=ck)
    sys.exit("the run survived a dead worker")
except BrokenProcessPool:
    pass
verifier.enumerate_job = enumerate_job
assert run_campaign(c, workers=2, checkpoint=ck).body_bytes() == run_campaign(c).body_bytes()
"""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(verifier.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "run.ck")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_pool_workers_die_with_the_campaign(self, tmp_path):
        # a campaign killed by SIGKILL or SIGTERM leaves no worker waiting for work
        code = """
import os, sys, time
import ucf.verifier as verifier
from ucf import EnumerationConstraints, run_campaign

def job(c, j, *args, **kwargs):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(60)

verifier.enumerate_job = job
run_campaign(EnumerationConstraints(4, 1), workers=2)
"""

        def running(pid: str) -> bool:
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(verifier.__file__)))
        campaign = subprocess.Popen([sys.executable, "-c", code, str(tmp_path)], env=env)
        workers = []
        try:
            deadline = time.monotonic() + 30
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = os.listdir(tmp_path)
            assert len(workers) == 2
            campaign.kill()
            campaign.wait()
            deadline = time.monotonic() + 10
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(running, workers))
        finally:
            campaign.kill()
            for pid in filter(running, workers):
                os.kill(int(pid), signal.SIGKILL)

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

    def test_record_of_families_for_an_empty_job_refused(self, tmp_path, capsys):
        # job 2 of n=5 t=3 up to iso has no family; a record that counts some
        # for it, even one, is bad input, while a zero-count one, as older
        # labelled runs wrote for their empty jobs, is kept and the run resumes
        c = EnumerationConstraints(5, 3, up_to_iso=True)
        assert 2 not in subtree_jobs(c)
        ck = tmp_path / "run.ck"
        args = ["verify", "--n", "5", "--t", "3", "--up-to-iso", "--workers", "1", "--checkpoint", str(ck)]
        header = verifier._header_line(verifier._checkpoint_header(c, ("frankl", "s_frankl")))
        for count in (7, 1):
            record = {"job": 2, "count": count, "by_t": {"3": count}, "by_shape": {}, "failures": []}
            claimed = header + f"# agg {json.dumps(record)}\n"
            ck.write_text(claimed)
            with pytest.raises(PreconditionViolation, match="line 2: job 2 has no families"):
                run_campaign(c, checkpoint=str(ck))
            assert main(args) == 2
            assert "line 2: job 2 has no families" in capsys.readouterr().err
            assert ck.read_text() == claimed
        empty = header + '# agg {"job": 2, "count": 0, "by_t": {}, "by_shape": {}, "failures": []}\n'
        ck.write_text(empty)
        assert run_campaign(c, checkpoint=str(ck)).body_bytes() == run_campaign(c).body_bytes()
        assert ck.read_text().startswith(empty)

    def test_fresh_iso_checkpoint_records_only_nonempty_jobs(self, tmp_path):
        c = EnumerationConstraints(6, 4, up_to_iso=True)
        ck = tmp_path / "run.ck"
        run_campaign(c, workers=2, checkpoint=str(ck))
        text = ck.read_text()
        records = [json.loads(ln[len("# agg "):]) for ln in text.splitlines() if ln.startswith("# agg ")]
        assert len(records) == len(subtree_jobs(c))
        assert all(r["count"] > 0 for r in records)
        assert '"count": 0' not in text

    def test_header_depth_must_equal_job_depth(self, tmp_path, capsys):
        c = EnumerationConstraints(6, 4, up_to_iso=True)
        assert job_depth(c) == 15
        ck = tmp_path / "run.ck"
        args = ["verify", "--n", "6", "--t", "4", "--up-to-iso", "--workers", "1", "--checkpoint", str(ck)]
        depths = ("10", "16", "-1", "10.0", '"15"', "true", "null")
        texts = [N6T4_ISO_DEPTH10_CHECKPOINT.replace('"depth": 10', f'"depth": {depth}') for depth in depths]
        for text in [*texts, N6T4_ISO_DEPTH10_CHECKPOINT.replace('"depth": 10, ', "")]:
            ck.write_text(text)
            with pytest.raises(PreconditionViolation, match="line 1: the header of a different campaign"):
                run_campaign(c, checkpoint=str(ck))
            assert main(args) == 2
            assert "line 1: the header of a different campaign" in capsys.readouterr().err
            assert ck.read_text() == text

    def test_descending_iso_checkpoint_refused(self, tmp_path, capsys):
        # its job ids name prefixes of another candidate order, so resuming
        # it would mix two partitions of the search
        c = EnumerationConstraints(6, 4, up_to_iso=True)
        ck = tmp_path / "run.ck"
        ck.write_text(OLD_N6T4_ISO_CHECKPOINT)
        with pytest.raises(PreconditionViolation, match="different campaign"):
            run_campaign(c, checkpoint=str(ck))
        assert main(["verify", "--n", "6", "--t", "4", "--up-to-iso", "--workers", "1", "--checkpoint", str(ck)]) == 2
        assert "different campaign" in capsys.readouterr().err
        assert ck.read_text() == OLD_N6T4_ISO_CHECKPOINT

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

    def test_bad_job_records_rejected(self, tmp_path, monkeypatch):
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
            # no family of a t=2 campaign has T below 2
            {"job": 0, "count": 20, "by_t": {"1": 20}, "by_shape": {}, "failures": []},
            {**good, "by_t": {"0": good["count"]}},
            {**good, "by_shape": {"G4": 1}},
            {**good, "by_shape": {"G3": "1"}},
            {**good, "by_shape": {"G3": 1}},  # shapes are tallied only at n=6 t=3
            {**good, "failures": {}},
            {**good, "failures": [{"check": "frankl"}]},
            {**good, "failures": [{"check": 1, "family": ""}]},
            # a failure must name one of the campaign's checks and a family over {1..4}
            {**good, "failures": [{"check": "bogus", "family": "not a family"}]},
            {**good, "failures": [{"check": "bogus", "family": "n=4\n{}\n1,2,3,4\n"}]},
            {**good, "failures": [{"check": "lemma_1_2_spot", "family": "n=4\n{}\n1,2,3,4\n"}]},
            {**good, "failures": [{"check": "frankl", "family": "not a family"}]},
            {**good, "failures": [{"check": "frankl", "family": "n=5\n{}\n1,2,3,4,5\n"}]},
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
        # at n=6 t=3 the shape counts must split the T=3 count, checked before any job runs
        def no_job(*args, **kwargs):
            raise AssertionError("a job ran before the checkpoint was validated")

        monkeypatch.setattr(verifier, "enumerate_job", no_job)
        c, checks = EnumerationConstraints(6, 3, up_to_iso=True), ("frankl", "s_frankl")
        header = verifier._header_line(verifier._checkpoint_header(c, checks))
        for by_t, by_shape in (({}, {"G3": 1}), ({"3": 2}, {"G3": 1}), ({"3": 1, "4": 1}, {"G3": 2})):
            bad = {"job": 1, "count": sum(by_t.values()), "by_t": by_t, "by_shape": by_shape, "failures": []}
            ck.write_text(header + f"# agg {json.dumps(bad)}\n")
            with pytest.raises(PreconditionViolation, match="line 2: by_shape"):
                run_campaign(c, checks, checkpoint=str(ck))

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


def check_corpus() -> list[str]:
    """Seeded family files for n = 2..12: closed families holding {} and
    M_n, open ones, and ones of large members (T >= 2 is likely), each
    written with shuffled members, comments, blank lines, CRLF endings
    and spellings such as ' 1, 3' that are not the canonical '1,3'."""
    rng = random.Random(20181)
    # no nonempty member; a 56-mask T-slice, too large for the pair search
    texts = ["n=3\n{}\n", "n=8\n{}\n" + "".join(",".join(map(str, s)) + "\n" for r in (5, 6) for s in itertools.combinations(range(1, 9), r))]
    for n in range(2, 13):
        for i in range(30):
            masks = {rng.randrange(1, 1 << n) for _ in range(rng.randint(2, 9))}
            if i % 3 == 0:
                masks = set(union_closure(SetFamily.from_masks(n, masks)).members) | {0, (1 << n) - 1}
            elif i % 3 == 2:
                masks = {m for m in masks if 2 * m.bit_count() >= n} | {0, (1 << n) - 1}
            members = sorted(masks)
            rng.shuffle(members)
            lines = [f"n={n}"]
            for mask in members:
                labels = [str(b + 1) for b in range(n) if mask >> b & 1]
                style = rng.randrange(6)
                if not labels:
                    line = " {} " if style == 0 else "{}"
                elif style == 0:
                    line = " " + ", ".join(labels)
                elif style == 1:
                    line = ",".join(labels) + "  # member"
                elif style == 2:
                    line = "\t" + ",".join(labels) + " "
                else:
                    line = ",".join(labels)
                lines.append(line)
                if rng.randrange(8) == 0:
                    lines.append(rng.choice(["", "# a comment", "   "]))
            if i % 5 == 4:
                lines.insert(0, f"# family {i}")
            end = "\r\n" if i % 7 == 6 else "\n"
            texts.append(end.join(lines) + end)
    return texts


def corpus_digest(texts: list[str]) -> str:
    """One sha256 over the sorted-key JSON of every check record."""
    h = hashlib.sha256()
    for text in texts:
        h.update(json.dumps(check_single(parse_family(text)).to_dict(), sort_keys=True).encode() + b"\n")
    return h.hexdigest()


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
            assert record.witness == abundance_witness(target)
        record = check_single(SetFamily(4, (0,)))
        assert record.frankl is None and record.s_frankl is None
        assert record.verdict == "not-applicable"
        assert record.witness is None
        with pytest.raises(NoNonemptyMember):
            abundance_witness(SetFamily(4, (0,)))

    def test_the_closure_is_profiled_once(self, monkeypatch):
        # the witness is read off the record's own T(F) and profile; an
        # n=5 family keeps classify_shape from reaching t_value
        calls = Counter()
        for name in ("frequency_profile", "t_value"):
            fn = getattr(core, name)
            counted = lambda family, name=name, fn=fn: calls.update([name]) or fn(family)  # noqa: E731
            for module in (core, decomposition, verifier):
                monkeypatch.setattr(module, name, counted)
        record = check_single(SetFamily.from_sets(5, [[], [1, 2], [1, 3], [1, 2, 3, 4, 5]]))
        assert record.witness is not None and record.shape is None
        assert calls == Counter(frequency_profile=1)

    def test_records_of_a_seeded_corpus_are_pinned(self):
        # every field of `ucf check --json`, closure text, pairing and
        # notes included, as the bit-loop helpers that the per-n mask
        # tables replaced wrote them
        texts = check_corpus()
        assert len(texts) == 332
        assert corpus_digest(texts) == "a6eb49c5caf653bebb9a4a28e4fe37b571ec261b684fc4d615cb4fd6bd68065a"


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
