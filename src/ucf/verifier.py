"""Campaign driver: enumerate families, run conjecture checks on each,
aggregate per-T and per-shape statistics, and emit reports, checkpoints,
and counterexample dumps.

A campaign is split into the enumeration's independent subtree jobs.
Jobs run serially or in a process pool; each returns its own exact
aggregate and the merge is associative, so totals, statistics, and the
(sorted) counterexample list are identical for any worker count.
Completed jobs are appended to a checkpoint file, in job order, as their
results come back, which makes campaigns resumable after interruption.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from typing import Sequence

# frankl_holds, s_frankl_holds, lemma_1_2_bound and abundance_witness are not called
# here; they stay importable from this module because bench/run.py times ucf.verifier
# globals by name
from .core import (
    Mask,
    SetFamily,
    frankl_holds,
    frequency_profile,
    full_mask,
    lemma_1_2_bound,
    level_profile,
    mask_tables,
    s_frankl_holds,
    t_value,
    union_closure,
)
from .decomposition import (
    SHAPE_TAGS,
    AbundanceWitness,
    PairDecomposition,
    abundance_witness,
    classify_shape,
    pair_decompose,
)
from .enumeration import (
    KEY_MASK,
    EnumerationConstraints,
    candidate_order,
    ensure_enumerable,
    enumerate_job,
    job_depth,
    map_jobs,
    node_family,
    split_counts,
    subtree_jobs,
)
from .errors import (
    InfeasibleScale,
    NotInScope,
    ParseError,
    PreconditionViolation,
    WitnessUnavailable,
)
from .fileformat import format_family, parse_family


def _failure_record(check: str, family: SetFamily) -> dict:
    """The counterexample record of an enumerated family that failed check."""
    prof = frequency_profile(family)
    return {
        "check": check,
        "family": format_family(family),
        "t": t_value(family),
        "m": prof.m,
        "freq": list(prof.freq),
        "abundant": sorted(prof.abundant),
    }


# Each check reads two counters of one family with a nonempty member,
# T(F) >= 1 and its number of abundant elements, and says whether the
# family passes; a statement that says nothing passes.


def _frankl_ok(t: int, abundant: int) -> bool:
    """frankl_holds: some element is abundant."""
    return abundant > 0


def _s_frankl_ok(t: int, abundant: int) -> bool:
    """s_frankl_holds, which needs T(F) >= 2."""
    return t < 2 or abundant >= t


def _lemma_1_2_spot_ok(t: int, abundant: int) -> bool:
    """lemma_1_2_bound(M_n, G) on the co-atoms G of an enumerated family.

    Distinct co-atoms of M_n miss distinct single elements, so with
    |G| >= 2 every element lies in |G| or |G| - 1 of them: min_freq is
    |G| - 1, the bound holds for every family, and no counter is needed.
    """
    return True


CHECK_FNS = {
    "frankl": _frankl_ok,
    "s_frankl": _s_frankl_ok,
    "lemma_1_2_spot": _lemma_1_2_spot_ok,
}
CHECK_NAMES = tuple(CHECK_FNS)
# the (n, t) of the one campaign that also tallies its T=3 families by shape
_SHAPE_CAMPAIGN = (6, 3)


@dataclass
class VerificationReport:
    constraints: EnumerationConstraints
    checks: tuple[str, ...]
    families_total: int
    families_by_T: dict[int, int]
    families_by_shape: dict[str, int] | None
    counterexamples: list[dict]
    wall_time: float
    workers: int

    def body_dict(self) -> dict:
        """The invariant report content: everything that must be
        byte-identical across worker counts."""
        return {
            "constraints": asdict(self.constraints),
            "checks": list(self.checks),
            "families_total": self.families_total,
            "families_by_T": {str(k): v for k, v in sorted(self.families_by_T.items())},
            "families_by_shape": (
                None
                if self.families_by_shape is None
                else {k: v for k, v in sorted(self.families_by_shape.items())}
            ),
            "counterexamples": self.counterexamples,
        }

    def body_bytes(self) -> bytes:
        return json.dumps(self.body_dict(), sort_keys=True, separators=(",", ":")).encode()

    def to_dict(self) -> dict:
        out = self.body_dict()
        out["wall_time"] = self.wall_time
        out["workers"] = self.workers
        out["order"] = candidate_order(self.constraints)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _failing(n: int, checks: Sequence[str]) -> list[list[tuple[str, ...]]]:
    """failing[t][a]: the checks a family with T = t and a abundant elements fails."""
    return [[tuple(name for name in checks if not CHECK_FNS[name](t, a)) for a in range(n + 1)] for t in range(n + 1)]


def _job_worker(payload: tuple) -> dict:
    """One job's record, read off a tally of the walk's verdict keys.

    The walk itself counts families per key, its packed counters &
    KEY_MASK[n] (see split_counts), with no call per family; T, the shape
    and the verdicts of run_campaign's _failing table are read once per
    distinct key.  A job with a failing key walks again to build, in
    order, the SetFamily enumerate_families visits for each family that
    fails.
    """
    c, failing, job = payload
    n = c.n
    shape_mode = (n, c.t) == _SHAPE_CAMPAIGN
    tally: dict[int, int] = {}
    count = enumerate_job(c, job, tally=tally)
    t_counts = [0] * (n + 1)
    shape_counts = [0] * len(SHAPE_TAGS)
    bad: dict[int, tuple[str, ...]] = {}
    for key, k in tally.items():
        _, _, levels, t, a = split_counts(n, key)
        t_counts[t] += k
        if shape_mode and t == 3:
            shape_counts[2 * (levels >> 32 & 0xFF > 0) + (levels >> 40 & 0xFF > 0)] += k
        if failing[t][a]:
            bad[key] = failing[t][a]
    failures: list[dict] = []
    if bad:
        key_mask = KEY_MASK[n]

        def collect(present: int, counts: int) -> None:
            checks = bad.get(counts & key_mask)
            if checks:
                family = node_family(c, present)
                failures.extend(_failure_record(name, family) for name in checks)

        enumerate_job(c, job, collect)
    if count != sum(t_counts):
        raise AssertionError(f"key tally ({sum(t_counts)}) disagrees with count ({count})")
    return {
        "job": job,
        "count": count,
        "by_t": {t: k for t, k in enumerate(t_counts) if k},
        "by_shape": {tag: k for tag, k in zip(SHAPE_TAGS, shape_counts) if k},
        "failures": failures,
    }


def _header_line(header: dict) -> str:
    return f"# campaign {json.dumps(header, sort_keys=True)}\n"


def _checkpoint_header(c: EnumerationConstraints, checks: Sequence[str]) -> dict:
    # old labelled checkpoints resume; "asc", sampled or "desc" up-to-iso ones are other campaigns
    return {**asdict(c), "order": candidate_order(c), "depth": job_depth(c), "checks": list(checks), "lemma_every": 1}


def _checkpoint_json(path: str, lineno: int, text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise PreconditionViolation(f"checkpoint {path} line {lineno}: {exc}") from None


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_tally(value, keys) -> bool:
    """Whether value maps some of keys to counts."""
    return isinstance(value, dict) and set(value) <= set(keys) and all(map(_is_count, value.values()))


def _is_failure(value, header: dict) -> bool:
    if not (isinstance(value, dict) and value.get("check") in header["checks"] and isinstance(value.get("family"), str)):
        return False
    try:
        return parse_family(value["family"]).n == header["n"]
    except ParseError:
        return False


def _record_problem(record, header: dict, jobs: set[int]) -> str | None:
    """What makes a job record unusable in the campaign of header, whose
    nonempty jobs are jobs, or None.  A record of no families for an
    empty job, as older labelled runs wrote, is usable."""
    if not isinstance(record, dict):
        return "a job record must be an object"
    job, count, by_t, by_shape, failures = map(record.get, ("job", "count", "by_t", "by_shape", "failures"))
    depth = header["depth"]
    if type(job) is not int or not 0 <= job < 1 << depth:
        return f"job {job!r} outside 0..{(1 << depth) - 1}"
    if not _is_count(count):
        return f"count {count!r} is not an int >= 0"
    if count and job not in jobs:
        return f"job {job} has no families in this campaign, but its record counts {count}"
    n, t = header["n"], header["t"]
    if not _is_tally(by_t, map(str, range(t, n + 1))):
        return f"by_t {by_t!r} does not map {t}..{n} to ints >= 0"
    if sum(by_t.values()) != count:
        return f"by_t sums to {sum(by_t.values())}, not to count {count}"
    if not _is_tally(by_shape, SHAPE_TAGS):
        return f"by_shape {by_shape!r} does not map shape tags to ints >= 0"
    if sum(by_shape.values()) != (by_t.get("3", 0) if (n, t) == _SHAPE_CAMPAIGN else 0):
        return f"by_shape {by_shape!r} must split the T=3 count of an n=6 t=3 campaign, and be empty in any other"
    if not isinstance(failures, list) or not all(_is_failure(f, header) for f in failures):
        return f"failures must be a list of objects with a check in {header['checks']} and a family over 1..{header['n']}"
    return None


def _load_checkpoint(path: str, header: dict, jobs: set[int]) -> tuple[dict[int, dict], int]:
    """Completed job records from an earlier run of the same campaign,
    whose nonempty jobs are jobs, and the length of the file's prefix
    that holds whole lines.

    The first line is the campaign header, which must equal header in
    every field, the job depth included.  Every later line is a `# agg`
    job record or a legacy `subtree=` line, which is not read.  A run
    stopped in the middle of a write leaves an unterminated last line;
    it is not read, and the job it belonged to runs again.  Any other
    line raises PreconditionViolation naming it.
    """
    if not os.path.exists(path):
        return {}, 0
    with open(path, "rb") as fh:
        data = fh.read()
    keep = data.rfind(b"\n") + 1
    # a whole first line must be a header; a torn one must begin this campaign's
    if not (data.startswith(b"# campaign ") if keep else _header_line(header).encode().startswith(data)):
        raise PreconditionViolation(f"checkpoint {path} has no campaign header line")
    done: dict[int, dict] = {}
    for lineno, raw in enumerate(data[:keep].splitlines(), start=1):
        line = raw.decode("utf-8", errors="replace")
        if lineno == 1:
            stored = _checkpoint_json(path, lineno, line[len("# campaign "):])
            if stored != header:
                raise PreconditionViolation(
                    f"checkpoint {path} line 1: the header of a different campaign: {stored} != {header}"
                )
        elif line.startswith("# agg "):
            record = _checkpoint_json(path, lineno, line[len("# agg "):])
            problem = _record_problem(record, header, jobs)
            if problem:
                raise PreconditionViolation(f"checkpoint {path} line {lineno}: {problem}")
            job = record["job"]
            if job in done:
                raise PreconditionViolation(f"checkpoint {path} line {lineno}: job {job} recorded twice")
            done[job] = record
        elif not line.startswith("subtree="):
            raise PreconditionViolation(
                f"checkpoint {path} line {lineno}: {line!r} is neither a job record nor a legacy subtree= line"
            )
    return done, keep


def _dump_counterexample(directory: str, failure: dict) -> str:
    os.makedirs(directory, exist_ok=True)
    digest = hashlib.sha256(
        (failure["check"] + "\n" + failure["family"]).encode()
    ).hexdigest()[:16]
    path = os.path.join(directory, f"ce-{digest}.family")
    body = f"# failed check: {failure['check']}\n" + failure["family"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)
    return path


def run_campaign(
    c: EnumerationConstraints,
    checks: Sequence[str] = ("frankl", "s_frankl"),
    *,
    workers: int = 1,
    checkpoint: str | None = None,
    counterexample_dir: str | None = None,
    unbounded: bool = False,
) -> VerificationReport:
    """Run every selected check on every enumerated family.

    Totals are exact; the report body is independent of the worker
    count.  Only the nonempty jobs of subtree_jobs run.  workers must
    be at least 1, and no more processes start than there are jobs left
    to run.  With a checkpoint path, each job is recorded when its
    result comes back and skipped on the next run with the same path, so
    a run that was interrupted (killed, torn mid-write, or stopped by an
    exception in a job) resumes to the same report body; its header must
    name this campaign and its job_depth(c).  Records come back in job
    order, from a pool a chunk at a time (see map_jobs), and a dead pool
    worker ends the run with BrokenProcessPool.  A job's counterexample
    dumps go out before its checkpoint record.
    """
    checks = tuple(checks)
    for i, name in enumerate(checks):
        if name not in CHECK_FNS:
            raise PreconditionViolation(f"unknown check {name!r}; available: {CHECK_NAMES}")
        if name in checks[:i]:
            raise PreconditionViolation(f"check {name!r} is listed twice")
    failing = _failing(c.n, checks)
    if workers < 1:
        raise PreconditionViolation(f"workers must be at least 1, got {workers}")
    ensure_enumerable(c, unbounded)
    start = time.perf_counter()
    header = _checkpoint_header(c, checks)
    jobs = subtree_jobs(c)
    done, keep = _load_checkpoint(checkpoint, header, set(jobs)) if checkpoint else ({}, 0)

    payloads = [(c, failing, job) for job in jobs if job not in done]
    with ExitStack() as stack:
        if checkpoint:
            ck_fh = stack.enter_context(open(checkpoint, "a", encoding="utf-8"))
            ck_fh.truncate(keep)  # drop a torn last line
            if not keep:
                ck_fh.write(_header_line(header))
                ck_fh.flush()
        for record in map_jobs(stack, _job_worker, payloads, workers):
            # dumps first: a job whose record is written has all its findings on disk
            if counterexample_dir:
                for failure in record["failures"]:
                    _dump_counterexample(counterexample_dir, failure)
            if checkpoint:
                # one line per job, so an interruption tears at most the last line
                ck_fh.write(f"# agg {json.dumps(record, sort_keys=True)}\n")
                ck_fh.flush()
            done[record["job"]] = record

    families_total = 0
    by_t: dict[int, int] = {}
    by_shape: dict[str, int] = {}
    counterexamples: list[dict] = []
    for job in jobs:
        record = done[job]
        families_total += record["count"]
        for key, value in record["by_t"].items():
            by_t[int(key)] = by_t.get(int(key), 0) + value
        for key, value in record["by_shape"].items():
            by_shape[key] = by_shape.get(key, 0) + value
        counterexamples.extend(record["failures"])
    counterexamples.sort(key=lambda r: (r["check"], r["family"]))
    report = VerificationReport(
        constraints=c,
        checks=checks,
        families_total=families_total,
        families_by_T=by_t,
        families_by_shape=by_shape if (c.n, c.t) == _SHAPE_CAMPAIGN else None,
        counterexamples=counterexamples,
        wall_time=time.perf_counter() - start,
        workers=workers,
    )
    if sum(by_t.values()) != families_total:
        raise AssertionError("families_by_T does not sum to families_total")
    if report.families_by_shape is not None and sum(by_shape.values()) != by_t.get(3, 0):
        raise AssertionError("families_by_shape does not sum to the T=3 total")
    return report


@dataclass
class CheckRecord:
    """Diagnostic record for one family; verdicts refer to the closure."""

    family: SetFamily
    closed: SetFamily
    was_union_closed: bool
    closure_added: tuple[Mask, ...]
    t: int | None
    levels: tuple[int, ...]
    freq: tuple[int, ...]
    m: int
    abundant: tuple[int, ...]
    frankl: bool | None
    s_frankl: bool | None
    shape: str | None
    decomposition: PairDecomposition | None
    witness: AbundanceWitness | None
    notes: tuple[str, ...]
    verdict: str  # "pass" | "fail" | "not-applicable"

    def to_dict(self) -> dict:
        elements = mask_tables(self.family.n).elements
        out: dict = {
            "family": format_family(self.family),
            "was_union_closed": self.was_union_closed,
            "closure_added": [list(elements[m]) for m in self.closure_added],
            "t": self.t,
            "levels": list(self.levels),
            "freq": list(self.freq),
            "m": self.m,
            "abundant": list(self.abundant),
            "frankl": self.frankl,
            "s_frankl": self.s_frankl,
            "shape": self.shape,
            "notes": list(self.notes),
            "verdict": self.verdict,
        }
        if not self.was_union_closed:
            out["closure"] = format_family(self.closed)
        if self.decomposition is not None:
            out["decomposition"] = {
                "k": self.decomposition.k,
                "pairs": [[list(elements[a]), list(elements[b])] for a, b in self.decomposition.pairs],
                "residue": [list(elements[m]) for m in self.decomposition.residue],
                "target": list(elements[self.decomposition.target]),
            }
        if self.witness is not None:
            out["witness"] = {
                "elements": list(self.witness.elements),
                "m": self.witness.m,
                "freq": {str(e): f for e, f in zip(self.witness.elements, self.witness.counts)},
            }
        return out


def check_single(family: SetFamily) -> CheckRecord:
    """Full diagnostic on one family: closure delta, T, profiles,
    conjecture verdicts, shape, T-slice pairing, and witness.

    Everything refers to the union closure, profiled once.  The frankl
    and s_frankl verdicts are the campaign's own CHECK_FNS predicates,
    read off T(F) and the abundant count; s_frankl is None for T(F) = 1
    and both are None when no member is nonempty.
    """
    closed = union_closure(family)
    given = set(family.members)
    added = tuple([m for m in closed.members if m not in given])
    notes: list[str] = []
    if added:
        notes.append(f"input is not union-closed; {len(added)} set(s) added, verdicts refer to the closure")
    levels = level_profile(closed)
    prof = frequency_profile(closed)
    frankl: bool | None = None
    s_frankl: bool | None = None
    shape: str | None = None
    decomposition = None
    witness = None
    verdict = "not-applicable"
    # T(F): the lowest nonempty level, as in split_counts
    t = next((k for k in range(1, closed.n + 1) if levels[k]), None)
    if t is None:
        notes.append("no nonempty member; the conjectures say nothing here")
    else:
        frankl = CHECK_FNS["frankl"](t, len(prof.abundant))
        if t >= 2:
            s_frankl = CHECK_FNS["s_frankl"](t, len(prof.abundant))
        else:
            notes.append("T(F)=1: the at-least-T form is not applicable, frankl verdict applies")
        verdict = "fail" if frankl is False or s_frankl is False else "pass"
        try:
            shape = classify_shape(closed)
        except NotInScope:
            pass
        try:
            decomposition = pair_decompose(closed.members_of_size(t), full_mask(closed.n))
        except InfeasibleScale as exc:
            notes.append(f"no pair decomposition: {exc}")
        try:
            witness = AbundanceWitness.of(t, prof)
        except WitnessUnavailable as exc:
            notes.append(f"no abundance witness: {exc}")
    return CheckRecord(
        family=family,
        closed=closed,
        was_union_closed=not added,
        closure_added=added,
        t=t,
        levels=levels,
        freq=prof.freq,
        m=prof.m,
        abundant=tuple(sorted(prof.abundant)),
        frankl=frankl,
        s_frankl=s_frankl,
        shape=shape,
        decomposition=decomposition,
        witness=witness,
        notes=tuple(notes),
        verdict=verdict,
    )
