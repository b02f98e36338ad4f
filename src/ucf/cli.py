"""Command-line surface: parse and check family files, close families,
enumerate or oracle-list configurations, and drive verification campaigns.

Exit statuses: 0 = pass / no counterexamples, 1 = conjecture failure or
counterexamples found, 2 = parse, scope, or feasibility errors.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from typing import TYPE_CHECKING, Iterable

from .core import full_mask, union_closure
from .enumeration import (
    EnumerationConstraints,
    brute_force_enumerate,
    candidate_order,
    enumerate_families,
)
from .errors import ParseError, PreconditionViolation, UcfError
from .fileformat import format_family, parse_family
from .verifier import CHECK_NAMES, check_single, run_campaign

if TYPE_CHECKING:  # imported where a listing runs, not with ucf.cli, whose import time it would add to
    from array import array


def _read_family(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse_family(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError("not UTF-8 text", data.count(b"\n", 0, exc.start) + 1) from None


_LINES_PER_WRITE = 1 << 14


def _write(out: str | None, chunks: Iterable[str]) -> None:
    """Write chunks to the file out, or to stdout without one.  A reader
    of stdout that stops early (head, grep -q) is not an error: stdout
    then points at devnull, and the command keeps its own exit status."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _check_writable(path: str) -> None:
    """Raise now, creating nothing, the OSError that open(path, "w") would after a run: path is a folder or in none."""
    try:
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))  # the trailing "/" makes a file raise ENOTDIR
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    if os.path.isdir(path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _write_listing(keys: array, n: int, out: str | None) -> None:
    """Write the families of keys, an array('Q') sorted ascending, over {1..n} (see ucf.enumeration)
    one line each in member-tuple order, a chunk at a time from the end, and print count=: on stdout
    before them, or once the file out is written.

    Every key must hold M_n, its bit 0, as every listed family does: that member ends each line,
    so the table of the byte that holds bit 0 renders it without a comma and each line is one join.
    """
    full = full_mask(n)
    # t0..t7[v]: "a,b," for the members set in v as the key byte at shift k; bit b is mask full - b
    t0, t1, t2, t3, t4, t5, t6, t7 = [
        ["".join([f"{full - b}," for b in range(k + 7, k - 1, -1) if v >> b - k & 1]) for v in range(256)]
        for k in range(56, -8, -8)
    ]
    t7 = [text[:-1] if v & 1 else text for v, text in enumerate(t7)]  # M_n, the last member, has no comma

    def render(stop: int) -> str:
        chunk = keys[max(0, stop - _LINES_PER_WRITE) : stop]
        chunk.reverse()  # descending keys list their member tuples ascending
        if sys.byteorder == "little":
            chunk.byteswap()  # big-endian: a key's first byte holds its shift-56 bits
        data = chunk.tobytes()
        rows = zip(*[data[i::8] for i in range(8)])
        return "".join([f"{t0[a]}{t1[b]}{t2[c]}{t3[d]}{t4[e]}{t5[f]}{t6[g]}{t7[h]}\n" for a, b, c, d, e, f, g, h in rows])

    count = [f"count={len(keys)}\n"]
    _write(None, [] if out else count)  # count= goes first on stdout, or after the file it counts
    _write(out, (render(stop) for stop in range(len(keys), 0, -_LINES_PER_WRITE)))
    _write(None, count if out else [])


def _resolve_workers(args) -> int:
    if args.workers is not None:
        return args.workers
    env = os.environ.get("UCF_WORKERS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise PreconditionViolation(f"UCF_WORKERS must be an int, got {env!r}") from None
    return os.cpu_count() or 1


def cmd_check(args) -> int:
    record = check_single(_read_family(args.file))
    if args.json:
        lines = [json.dumps(record.to_dict(), indent=2, sort_keys=True)]
    else:
        closed = "yes" if record.was_union_closed else f"no (+{len(record.closure_added)} sets to close)"
        lines = [
            f"members: {record.family.m} (ground set 1..{record.family.n})",
            f"union-closed: {closed}",
            f"T(F): {record.t if record.t is not None else 'undefined'}",
            "levels: " + " ".join(f"{k}:{c}" for k, c in enumerate(record.levels) if c),
            "freq: " + " ".join(f"{e}:{f}" for e, f in enumerate(record.freq, start=1)),
            "abundant: " + (",".join(str(e) for e in record.abundant) or "-"),
            f"frankl: {record.frankl}  s_frankl: {record.s_frankl}  shape: {record.shape}",
        ]
        if record.decomposition is not None:
            d = record.decomposition
            lines.append(f"T-slice pairing vs M_n: k={d.k}, residue {len(d.residue)} set(s)")
        if record.witness is not None:
            w = record.witness
            certs = " ".join(f"{e}:{f}/{w.m}" for e, f in zip(w.elements, w.counts))
            lines.append(f"witness: {certs}")
        lines += [f"note: {note}" for note in record.notes]
        lines.append(f"verdict: {record.verdict}")
    _write(None, [line + "\n" for line in lines])
    return {"pass": 0, "fail": 1}.get(record.verdict, 2)


def cmd_closure(args) -> int:
    _write(args.out, [format_family(union_closure(_read_family(args.file)))])
    return 0


def cmd_enumerate(args) -> int:
    from array import array

    c = EnumerationConstraints(args.n, args.t, up_to_iso=args.up_to_iso)
    keys = array("Q")
    enumerate_families(c, keys.extend, unbounded=args.unbounded, workers=_resolve_workers(args))
    import numpy as np  # already loaded by the listing's key table

    np.frombuffer(keys, np.uint64).sort()  # in place, through a view
    _write_listing(keys, c.n, args.out)
    return 0


def cmd_oracle(args) -> int:
    from array import array

    c = EnumerationConstraints(args.n, args.t, up_to_iso=args.up_to_iso)
    full = full_mask(c.n)
    keys = sorted([sum([1 << full - m for m in f.members]) for f in brute_force_enumerate(c)])
    _write_listing(array("Q", keys), c.n, args.out)
    return 0


def cmd_verify(args) -> int:
    c = EnumerationConstraints(args.n, args.t, up_to_iso=args.up_to_iso)
    checks = tuple(args.checks.split(",")) if args.checks else ("frankl", "s_frankl")
    ce_dir = args.report + ".counterexamples" if args.report else "counterexamples"
    report = run_campaign(
        c,
        checks,
        workers=_resolve_workers(args),
        checkpoint=args.checkpoint,
        counterexample_dir=ce_dir,
        unbounded=args.unbounded,
    )
    if args.report:
        _write(args.report, [report.to_json()])
    lines = [f"families_total: {report.families_total}"]
    for name, tally in (("by T", report.families_by_T), ("by shape", report.families_by_shape)):
        if tally is not None:
            lines.append(f"{name}: " + "  ".join(f"{k}:{v}" for k, v in sorted(tally.items())))
    lines.append(f"counterexamples: {len(report.counterexamples)}")
    lines.append(f"wall_time: {report.wall_time:.2f}s  workers: {report.workers}  order: {candidate_order(c)}")
    _write(None, [line + "\n" for line in lines])
    return 1 if report.counterexamples else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucf",
        description="union-closed set families: checks, enumeration, exhaustive verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="diagnose one family file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="print the full record as JSON")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("closure", help="union-close a family file and print it")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_closure)

    def enum_flags(p, search: bool = True):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--up-to-iso", action="store_true", dest="up_to_iso")
        if search:  # the oracle is one numpy scan, capped by its pool size
            p.add_argument("--unbounded", action="store_true", help="acknowledge a census-scale run (n=6, t<=2)")
            p.add_argument("--workers", type=int, default=None, help="default: UCF_WORKERS or CPU count")

    p = sub.add_parser("enumerate", help="dump all families (canonical forms when --up-to-iso)")
    enum_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("oracle", help="brute-force oracle listing for small configurations")
    enum_flags(p, search=False)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run a verification campaign")
    enum_flags(p)
    p.add_argument("--checkpoint", help="resumable progress file")
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--checks", help=f"comma list from {','.join(CHECK_NAMES)} (default frankl,s_frankl)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for path in filter(None, (getattr(args, "out", None), getattr(args, "report", None))):
            _check_writable(path)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (UcfError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
