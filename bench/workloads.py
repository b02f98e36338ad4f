"""The benchmark's workloads and the exact values their outputs must match.

Each workload drives ucf in-process the way its command line would:
``execute`` is the timed operation and ``gate`` compares its output
with expected values afterwards, returning one message per failed
operation.  ``attempted`` is how many operations one ``execute`` makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from time import perf_counter

from ucf import cli, fileformat, verifier
from ucf.enumeration import EnumerationConstraints

import oracle


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``ucf <argv>`` in this process: (exit code, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass(frozen=True)
class _Enumeration:
    """A deterministic ucf command over one enumeration configuration;
    it takes no seed."""

    n: int
    t: int
    up_to_iso: bool

    attempted = 1

    def constraints(self) -> EnumerationConstraints:
        return EnumerationConstraints(self.n, self.t, True, self.up_to_iso)

    def argv(self) -> list[str]:
        return ["--n", str(self.n), "--t", str(self.t)] + (["--up-to-iso"] if self.up_to_iso else [])

    def prepare(self, seed: int) -> None:
        return None

    def samples(self, result, wall: float) -> list[float]:
        return [wall]


@dataclass(frozen=True)
class Campaign(_Enumeration):
    """``ucf verify``, gated on the totals, the by-T split, zero
    counterexamples and the sha256 of the report body."""

    checks: str | None
    families: int
    by_t: dict[int, int]
    body_sha256: str

    def paths(self, work: str) -> tuple[str, str]:
        return os.path.join(work, "campaign.ckpt"), os.path.join(work, "report.json")

    def execute(self, state, work: str, workers: int):
        checkpoint, report = self.paths(work)
        argv = ["verify"] + self.argv()
        if self.checks:
            argv += ["--checks", self.checks]
        argv += ["--workers", str(workers), "--checkpoint", checkpoint, "--report", report]
        return run_cli(argv)

    def gate(self, state, work: str, result) -> list[str]:
        code, _ = result
        with open(self.paths(work)[1], encoding="utf-8") as fh:
            report = json.load(fh)
        for key in ("wall_time", "workers", "order"):
            report.pop(key)
        body = json.dumps(report, sort_keys=True, separators=(",", ":")).encode()
        wrong = []
        if code != 0:
            wrong.append(f"exit code {code}")
        if report["families_total"] != self.families:
            wrong.append(f"families_total {report['families_total']} != {self.families}")
        by_t = {int(k): v for k, v in report["families_by_T"].items()}
        if by_t != self.by_t:
            wrong.append(f"by T {by_t} != {self.by_t}")
        if report["counterexamples"]:
            wrong.append(f"{len(report['counterexamples'])} counterexamples")
        digest = hashlib.sha256(body).hexdigest()
        if digest != self.body_sha256:
            wrong.append(f"report body sha256 {digest} != {self.body_sha256}")
        return ["; ".join(wrong)] if wrong else []


@dataclass(frozen=True)
class Listing(_Enumeration):
    """``ucf enumerate --out FILE``, gated on the printed count and the
    sha256 of the listing."""

    families: int
    sha256: str

    def out(self, work: str) -> str:
        return os.path.join(work, "listing.txt")

    def execute(self, state, work: str, workers: int):
        return run_cli(["enumerate"] + self.argv() + ["--out", self.out(work)])

    def gate(self, state, work: str, result) -> list[str]:
        code, stdout = result
        wrong = []
        if code != 0:
            wrong.append(f"exit code {code}")
        if stdout.strip() != f"count={self.families}":
            wrong.append(f"printed {stdout.strip()!r}, expected count={self.families}")
        digest = sha256_file(self.out(work))
        if digest != self.sha256:
            wrong.append(f"listing sha256 {digest} != {self.sha256}")
        return ["; ".join(wrong)] if wrong else []


@dataclass(frozen=True)
class Diagnose:
    """What ``ucf check FILE --json`` does, for each of ``count`` family
    files generated from the seed; every record is gated on the oracle."""

    count: int

    @property
    def attempted(self) -> int:
        return self.count

    def constraints(self) -> None:
        return None

    def prepare(self, seed: int) -> tuple[list[str], list[tuple]]:
        texts = oracle.generate(seed, self.count)
        return texts, [oracle.expected(text) for text in texts]

    def execute(self, state, work: str, workers: int):
        keys, latencies = [], []
        for text in state[0]:
            t0 = perf_counter()
            try:
                record = verifier.check_single(fileformat.parse_family(text)).to_dict()
            except Exception as exc:  # counted as this family's failure by gate
                record = exc
            latencies.append(perf_counter() - t0)
            keys.append(oracle.key(record) if isinstance(record, dict) else repr(record))
        return keys, latencies

    def gate(self, state, work: str, result) -> list[str]:
        return [
            f"family {i}: got {got}, oracle {want}"
            for i, (got, want) in enumerate(zip(result[0], state[1]))
            if got != want
        ]

    def samples(self, result, wall: float) -> list[float]:
        return result[1]


WORKLOADS = {
    "flagship": Campaign(
        6, 3, True, None,
        families=415282,
        by_t={3: 414818, 4: 457, 5: 6, 6: 1},
        body_sha256="ec79cfccff5f23918a21aa2dd3a6fc0ba1a992bbb884cb9babfd2c73df8d3159",
    ),
    "listing": Listing(
        6, 3, True,
        families=415282,
        sha256="3c39948bc7daa6bb7d9c9743cc5d08a91b9e7c04d3cf9fe17fe5c307a0ba6ed7",
    ),
    "labelled": Campaign(
        5, 2, False, "frankl,s_frankl,lemma_1_2_spot",
        families=241805,
        by_t={2: 236860, 3: 4913, 4: 31, 5: 1},
        body_sha256="15c90b5867206ac97eae1acdaf4f4e020c9f42261f5c33fefbe60caf83ff93f2",
    ),
    "diagnose": Diagnose(20000),
}
