from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys

import pytest

import ucf
import ucf.verifier as verifier
from test_verifier import OLD_N4T2_CHECKPOINT, always_fail
from ucf.cli import main

F1_TEXT = "n=6\n{}\n1,2,3\n1,2,3,4,5,6\n"
# sha256 of the n=6 t=3 up-to-iso listing, as bench/workloads.py pins it
FLAGSHIP_LISTING_SHA256 = "3c39948bc7daa6bb7d9c9743cc5d08a91b9e7c04d3cf9fe17fe5c307a0ba6ed7"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCheck:
    def test_passing_family(self, tmp_path, capsys):
        status = main(["check", write(tmp_path, "f.family", F1_TEXT)])
        out = capsys.readouterr().out
        assert status == 0
        assert "verdict: pass" in out
        assert "witness: 1:2/3 2:2/3 3:2/3" in out
        assert "T(F): 3" in out

    def test_json_output(self, tmp_path, capsys):
        status = main(["check", "--json", write(tmp_path, "f.family", F1_TEXT)])
        assert status == 0
        record = json.loads(capsys.readouterr().out)
        assert record["verdict"] == "pass"
        assert record["witness"]["elements"] == [1, 2, 3]
        assert record["shape"] == "G3"

    def test_empty_file_is_a_parse_error(self, tmp_path, capsys):
        status = main(["check", write(tmp_path, "f.family", "")])
        assert status == 2
        assert "parse error" in capsys.readouterr().err

    def test_duplicate_member_reports_line(self, tmp_path, capsys):
        status = main(["check", write(tmp_path, "f.family", "n=3\n1\n1\n")])
        assert status == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "line 2" in err

    def test_non_utf8_file_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "f.family"
        path.write_bytes(b"\xff\xfen=3\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "parse error: line 1: not UTF-8 text\n"

    def test_form_feed_does_not_split_a_line(self, tmp_path, capsys):
        path = tmp_path / "f.family"
        path.write_bytes(b"n=3\n1\x0c\n1\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "parse error: line 3: duplicate member (first seen on line 2)\n"

    def test_crlf_file_checks_like_its_lf_twin(self, tmp_path, capsys):
        outputs = []
        for name, end in (("lf.family", b"\n"), ("crlf.family", b"\r\n")):
            path = tmp_path / name
            path.write_bytes(F1_TEXT.encode().replace(b"\n", end))
            for flags in ([], ["--json"]):
                assert main(["check", *flags, str(path)]) == 0
                outputs.append(capsys.readouterr().out)
        assert outputs[:2] == outputs[2:]
        assert "verdict: pass" in outputs[0]

    def test_both_routes_count_lines_alike(self, tmp_path, capsys):
        # a lone "\r" ends no line, for the UTF-8 check and for the parser
        path = tmp_path / "f.family"
        path.write_bytes(b"n=3\r1\r\xff\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "parse error: line 1: not UTF-8 text\n"
        path.write_bytes("n=3\r1\r\xff\n".encode())
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("parse error: line 1: bad ground set size")

    def test_missing_file(self, tmp_path, capsys):
        status = main(["check", str(tmp_path / "absent.family")])
        assert status == 2
        assert "io error" in capsys.readouterr().err

    def test_failing_family_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(verifier.CHECK_FNS, "frankl", always_fail)
        status = main(["check", write(tmp_path, "f.family", "n=3\n{}\n1\n1,2\n")])
        assert status == 1
        assert "verdict: fail" in capsys.readouterr().out


class TestClosure:
    def test_prints_closure(self, tmp_path, capsys):
        path = write(tmp_path, "open.family", "n=4\n1,2\n3,4\n")
        assert main(["closure", path]) == 0
        assert capsys.readouterr().out == "n=4\n1,2\n3,4\n1,2,3,4\n"

    def test_non_utf8_member_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "open.family"
        path.write_bytes(b"n=4\n1,2\n3,\xe94\n")
        assert main(["closure", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: line 3: not UTF-8 text\n"

    def test_out_file_round_trips(self, tmp_path, capsys):
        path = write(tmp_path, "open.family", "n=4\n1,2\n3,4\n")
        out = str(tmp_path / "closed.family")
        assert main(["closure", path, "--out", out]) == 0
        assert main(["check", out]) == 0
        assert "union-closed: yes" in capsys.readouterr().out


class TestEnumerate:
    def test_count_and_listing(self, tmp_path, capsys):
        out = str(tmp_path / "fams.txt")
        assert main(["enumerate", "--n", "3", "--t", "1", "--out", out]) == 0
        assert capsys.readouterr().out == "count=45\n"
        lines = open(out).read().splitlines()
        assert len(lines) == 45
        assert lines == sorted(lines, key=lambda ln: [int(x) for x in ln.split(",")])

    def test_matches_oracle_listing(self, tmp_path, capsys):
        e_out = str(tmp_path / "e.txt")
        o_out = str(tmp_path / "o.txt")
        assert main(["enumerate", "--n", "3", "--t", "1", "--out", e_out]) == 0
        assert main(["oracle", "--n", "3", "--t", "1", "--out", o_out]) == 0
        capsys.readouterr()
        assert open(e_out).read() == open(o_out).read()

    def test_iso_matches_oracle_listing(self, tmp_path, capsys):
        e_out = str(tmp_path / "e.txt")
        o_out = str(tmp_path / "o.txt")
        assert main(["enumerate", "--n", "6", "--t", "4", "--up-to-iso", "--out", e_out]) == 0
        assert main(["oracle", "--n", "6", "--t", "4", "--up-to-iso", "--out", o_out]) == 0
        assert capsys.readouterr().out == "count=464\ncount=464\n"
        with open(e_out, "rb") as e, open(o_out, "rb") as o:
            assert e.read() == o.read()

    def test_iso_count(self, capsys):
        assert main(["enumerate", "--n", "4", "--t", "2", "--up-to-iso"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("count=40\n")

    def test_pooled_listing_matches_serial(self, tmp_path, capsys):
        outs = [str(tmp_path / f"w{workers}.txt") for workers in (1, 2)]
        for workers, out in zip((1, 2), outs):
            argv = ["enumerate", "--n", "5", "--t", "3", "--up-to-iso", "--workers", str(workers), "--out", out]
            assert main(argv) == 0
        assert capsys.readouterr().out == "count=119\ncount=119\n"
        with open(outs[0], "rb") as serial, open(outs[1], "rb") as pooled:
            assert serial.read() == pooled.read()

    def test_flagship_listing_is_pinned(self, tmp_path):
        # the paper's 415,282 classes on a pool, run as the console script runs
        out = tmp_path / "L"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ucf.__file__)))
        argv = ["enumerate", "--n", "6", "--t", "3", "--up-to-iso", "--workers", "2", "--out", str(out)]
        run = subprocess.run([sys.executable, "-m", "ucf.cli", *argv], env=env, capture_output=True, text=True, timeout=300)
        assert (run.returncode, run.stdout, run.stderr) == (0, "count=415282\n", "")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FLAGSHIP_LISTING_SHA256

    def test_workers_below_one_exit_two(self, capsys, monkeypatch):
        # the flag and its UCF_WORKERS default are those of ucf verify
        assert main(["enumerate", "--n", "4", "--t", "2", "--workers", "0"]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err
        monkeypatch.setenv("UCF_WORKERS", "0")
        assert main(["enumerate", "--n", "4", "--t", "2"]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err

    def test_bad_workers_env_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("UCF_WORKERS", "x")
        assert main(["enumerate", "--n", "4", "--t", "2"]) == 2
        assert capsys.readouterr().err == "error: UCF_WORKERS must be an int, got 'x'\n"

    def test_census_scale_needs_unbounded(self, capsys):
        assert main(["enumerate", "--n", "6", "--t", "2"]) == 2
        assert "unbounded" in capsys.readouterr().err

    def test_out_of_envelope(self, capsys):
        assert main(["enumerate", "--n", "7", "--t", "3"]) == 2
        capsys.readouterr()

    def test_bad_ground_size(self, capsys):
        assert main(["enumerate", "--n", "13", "--t", "1"]) == 2
        capsys.readouterr()


class TestOracle:
    def test_n2_count(self, capsys):
        assert main(["oracle", "--n", "2", "--t", "1"]) == 0
        assert capsys.readouterr().out.startswith("count=4\n")

    def test_singleton(self, capsys):
        assert main(["oracle", "--n", "3", "--t", "3"]) == 0
        assert capsys.readouterr().out == "count=1\n0,7\n"

    def test_pool_cap(self, capsys):
        assert main(["oracle", "--n", "5", "--t", "1"]) == 2
        assert "caps at 22" in capsys.readouterr().err


class TestVerify:
    def test_n4_t1_matches_oracle_total(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        status = main(
            ["verify", "--n", "4", "--t", "1", "--workers", "1", "--report", report_path]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "families_total: 2271" in out
        assert "counterexamples: 0" in out
        report = json.loads(open(report_path).read())
        assert report["families_total"] == 2271
        assert report["counterexamples"] == []

    def test_lemma_spot_check_flag(self, capsys):
        status = main(
            [
                "verify", "--n", "3", "--t", "1", "--workers", "1",
                "--checks", "frankl,s_frankl,lemma_1_2_spot",
            ]
        )
        assert status == 0
        capsys.readouterr()

    def test_bad_check_name(self, capsys):
        assert main(["verify", "--n", "3", "--t", "1", "--checks", "bogus"]) == 2
        assert "unknown check" in capsys.readouterr().err
        assert main(["verify", "--n", "3", "--t", "1", "--checks", "frankl,frankl"]) == 2
        assert "listed twice" in capsys.readouterr().err

    def test_workers_below_one_exit_two(self, capsys, monkeypatch):
        assert main(["verify", "--n", "3", "--t", "1", "--workers", "0"]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err
        monkeypatch.setenv("UCF_WORKERS", "0")
        assert main(["verify", "--n", "3", "--t", "1"]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err

    def test_bad_workers_env_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("UCF_WORKERS", "x")
        assert main(["verify", "--n", "4", "--t", "2"]) == 2
        assert capsys.readouterr().err == "error: UCF_WORKERS must be an int, got 'x'\n"

    def test_out_of_envelope(self, capsys):
        assert main(["verify", "--n", "7", "--t", "3"]) == 2
        assert capsys.readouterr().err == "error: exhaustive enumeration is supported for n <= 6, got n=7\n"

    def test_workers_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("UCF_WORKERS", "2")
        report_path = str(tmp_path / "report.json")
        status = main(["verify", "--n", "3", "--t", "2", "--report", report_path])
        assert status == 0
        capsys.readouterr()
        assert json.loads(open(report_path).read())["workers"] == 2

    def test_workers_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("UCF_WORKERS", "4")
        report_path = str(tmp_path / "report.json")
        status = main(
            ["verify", "--n", "3", "--t", "2", "--workers", "1", "--report", report_path]
        )
        assert status == 0
        capsys.readouterr()
        assert json.loads(open(report_path).read())["workers"] == 1

    def test_counterexamples_exit_one_and_dump(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(verifier.CHECK_FNS, "frankl", always_fail)
        monkeypatch.chdir(tmp_path)
        report_path = str(tmp_path / "report.json")
        status = main(
            [
                "verify", "--n", "3", "--t", "1", "--workers", "1",
                "--checks", "frankl", "--report", report_path,
            ]
        )
        out = capsys.readouterr().out
        assert status == 1
        assert "counterexamples: 45" in out
        dumps = list((tmp_path / "report.json.counterexamples").iterdir())
        assert len(dumps) == 45

    def test_counterexample_dump_name_is_pinned(self, tmp_path, capsys, monkeypatch):
        # ce- and the first 16 hex digits of sha256("frankl\n" + family) for
        # the one n=2 t=2 family, {} and {1,2}
        monkeypatch.setitem(verifier.CHECK_FNS, "frankl", always_fail)
        report_path = str(tmp_path / "report.json")
        assert main(["verify", "--n", "2", "--t", "2", "--checks", "frankl", "--report", report_path]) == 1
        capsys.readouterr()
        dumps = [p.name for p in (tmp_path / "report.json.counterexamples").iterdir()]
        assert dumps == ["ce-2302b36154f5254c.family"]

    def test_checkpoint_resume(self, tmp_path, capsys):
        ck = str(tmp_path / "run.ck")
        args = ["verify", "--n", "4", "--t", "1", "--workers", "1", "--checkpoint", ck]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "families_total: 2271" in first and "families_total: 2271" in second

    def test_torn_checkpoint_resumes(self, tmp_path, capsys):
        ck = tmp_path / "run.ck"
        args = ["verify", "--n", "5", "--t", "3", "--workers", "1", "--checkpoint", str(ck)]
        assert main(args) == 0
        first = capsys.readouterr().out
        ck.write_bytes(ck.read_bytes()[:-40])
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first.split("wall_time")[0] == second.split("wall_time")[0]

    def test_ascending_or_sampled_checkpoint_refused(self, tmp_path, capsys):
        ck = tmp_path / "run.ck"
        args = ["verify", "--n", "4", "--t", "2", "--workers", "1", "--checkpoint", str(ck)]
        for old, new in (('"order": "desc"', '"order": "asc"'), ('"lemma_every": 1', '"lemma_every": 5')):
            ck.write_text(OLD_N4T2_CHECKPOINT.replace(old, new))
            assert main(args) == 2
            assert "different campaign" in capsys.readouterr().err

    def test_malformed_job_record_exits_two_naming_its_line(self, tmp_path, capsys):
        ck = tmp_path / "run.ck"
        args = ["verify", "--n", "4", "--t", "2", "--workers", "1", "--checkpoint", str(ck)]
        header = OLD_N4T2_CHECKPOINT.splitlines(keepends=True)[0]
        for record in ('{"job": 3}', '{"job": 3, "count": 1, "by_t": {}, "by_shape": {}, "failures": []}'):
            ck.write_text(header + f"# agg {record}\n")
            assert main(args) == 2
            assert "line 2" in capsys.readouterr().err
        ck.write_text(header + "garbage line\n" + header)
        assert main(args) == 2
        assert "line 2" in capsys.readouterr().err


def test_summaries_survive_a_reader_that_stops_early(tmp_path):
    # grep -q and head exit early; under pipefail a later write to the
    # closed pipe must not fail the pipeline with exit 2
    family = shlex.quote(write(tmp_path, "open.family", "n=4\n{}\n1,2\n3,4\n"))
    ucf_cmd = f"{shlex.quote(sys.executable)} -m ucf.cli"
    env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=os.path.dirname(os.path.dirname(ucf.__file__)))
    for pipeline in (
        f"{ucf_cmd} check --json {family} | grep -q '\"verdict\": \"pass\"'",
        f"{ucf_cmd} check {family} | grep -q union-closed",
        f"{ucf_cmd} verify --n 3 --t 2 --workers 1 | grep -q families_total",
        f"{ucf_cmd} enumerate --n 5 --t 3 | head -1",
        f"{ucf_cmd} oracle --n 4 --t 2 | head -1",
        f"{ucf_cmd} closure {family} | head -1",
    ):
        for _ in range(5):
            out = subprocess.run(
                ["bash", "-o", "pipefail", "-c", pipeline],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
            )
            assert out.returncode == 0, (pipeline, out.stderr)


class TestParserPlumbing:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()

    def test_order_and_lemma_every_flags_are_gone(self, capsys):
        for argv in (
            ["enumerate", "--n", "3", "--t", "1", "--order", "desc"],
            ["verify", "--n", "3", "--t", "1", "--order", "desc"],
            ["verify", "--n", "3", "--t", "1", "--lemma-every", "1"],
            # the oracle is one numpy scan: no pool, no census-scale flag
            ["oracle", "--n", "3", "--t", "1", "--workers", "2"],
            ["oracle", "--n", "3", "--t", "1", "--unbounded"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
