"""Self-test of the benchmark on tiny versions of every workload.

    python3 bench/selftest.py

Run from a checkout of the repository.  Each tiny workload goes through
``run.main`` untraced and traced; every metric that BENCHMARK.json
names must be printed with its unit and no operation may fail.  Then
wrong expected counts, hashes and oracle values must make ``failed``
nonzero.  Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys

import run

sys.path.insert(0, run.SRC)

import oracle  # noqa: E402
from workloads import WORKLOADS, Campaign, Diagnose, Listing  # noqa: E402

TINY = {
    "flagship": Campaign(
        5, 3, True, None,
        families=119,
        by_t={3: 113, 4: 5, 5: 1},
        body_sha256="f2172f79fd1254e52cc7a3a90ff77977518ca2a918055951789e8fee89e1a3db",
    ),
    "listing": Listing(
        5, 3, True,
        families=119,
        sha256="d27ff1663580e09a4c1cfce54aa1f606047b1b33fd3dd92accec7346931dee7d",
    ),
    "labelled": Campaign(
        4, 2, False, "frankl,s_frankl,lemma_1_2_spot",
        families=378,
        by_t={2: 362, 3: 15, 4: 1},
        body_sha256="8a79df5672a6be37a21f32113ee6657206f52f175b1ba513b6b08ed8747a90a8",
    ),
    "diagnose": Diagnose(200),
}


def result(name: str, table: dict, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace)], table)
    assert code == 0, f"{name}: exit code {code}"
    return json.loads(out.getvalue().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for name in TINY:
            got = result(name, TINY, trace)
            units = {key: metric["unit"] for key, metric in got["metrics"].items()}
            assert units == want, f"{name} trace={trace}: metrics {sorted(units)} != {sorted(want)}"
            assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1, (name, trace, got)
            for key, metric in got["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (name, key, metric)
                if section == "end_to_end":
                    assert metric["value"] > 0, (name, key, metric)
            print(f"ok  {name:<9} trace={trace}  {len(units)} metrics")


def check_gates() -> None:
    wrong = {
        "flagship-count": dataclasses.replace(TINY["flagship"], families=120),
        "flagship-hash": dataclasses.replace(TINY["flagship"], body_sha256="0" * 64),
        "listing-count": dataclasses.replace(TINY["listing"], families=118),
        "listing-hash": dataclasses.replace(TINY["listing"], sha256="0" * 64),
        "labelled-by-t": dataclasses.replace(TINY["labelled"], by_t={2: 363, 3: 14, 4: 1}),
    }
    for name in wrong:
        for trace in (0, 1):
            got = result(name, wrong, trace)
            assert got["failed"] > 0 and not got["correct"], (name, trace, got)
            print(f"ok  {name:<14} trace={trace} fails {got['failed']}/{got['attempted']}")

    expected = oracle.expected
    oracle.expected = lambda text: expected(text)[:-1] + ("fail",)
    try:
        got = result("diagnose", TINY, 0)
    finally:
        oracle.expected = expected
    assert got["failed"] == TINY["diagnose"].count and not got["correct"], got
    print(f"ok  diagnose-oracle trace=0 fails {got['failed']}/{got['attempted']}")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads"
    check_metrics(spec)
    check_gates()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
