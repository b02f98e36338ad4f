"""Command-line surface: parse and check family files, close families,
enumerate or oracle-list configurations, and drive verification campaigns.

Exit statuses: 0 = pass / no counterexamples, 1 = conjecture failure or
counterexamples found, 2 = parse, scope, or feasibility errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .core import union_closure
from .enumeration import MAX_ENUM_GROUND, EnumerationConstraints, brute_force_enumerate, enumerate_families
from .errors import ParseError, UcfError
from .fileformat import format_family, parse_family
from .verifier import CHECK_NAMES, check_single, run_campaign


def _read_family(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_family(fh.read())


# the decimal names of every mask an enumerable family can hold
_MASK_NAMES = [str(m) for m in range(1 << MAX_ENUM_GROUND)]
_LINES_PER_WRITE = 1 << 14


def _write_listing(keys: list[bytes], out: str | None) -> None:
    """Write one line per family, in sorted order, from bytes(members)
    keys: masks are below 256, so bytes order is member-tuple order.
    Lines are rendered and written a chunk at a time."""
    keys.sort()
    names = _MASK_NAMES
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        for i in range(0, len(keys), _LINES_PER_WRITE):
            chunk = keys[i : i + _LINES_PER_WRITE]
            fh.write("".join([",".join([names[m] for m in key]) + "\n" for key in chunk]))


def _resolve_workers(args) -> int:
    if args.workers is not None:
        return args.workers
    env = os.environ.get("UCF_WORKERS")
    if env:
        return int(env)
    return os.cpu_count() or 1


def _print_lines(lines: list[str]) -> None:
    # one write: a reader that stops at its first match (grep -q) may close the pipe after it
    sys.stdout.write("".join(line + "\n" for line in lines))


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
    _print_lines(lines)
    return {"pass": 0, "fail": 1}.get(record.verdict, 2)


def cmd_closure(args) -> int:
    closed = union_closure(_read_family(args.file))
    text = format_family(closed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_enumerate(args) -> int:
    c = EnumerationConstraints(args.n, args.t, up_to_iso=args.up_to_iso)
    keys: list[bytes] = []
    count = enumerate_families(c, lambda f: keys.append(bytes(f.members)), unbounded=args.unbounded)
    print(f"count={count}")
    _write_listing(keys, args.out)
    return 0


def cmd_oracle(args) -> int:
    c = EnumerationConstraints(args.n, args.t, up_to_iso=args.up_to_iso)
    families = brute_force_enumerate(c)
    print(f"count={len(families)}")
    _write_listing([bytes(f.members) for f in families], args.out)
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
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    lines = [f"families_total: {report.families_total}"]
    for name, tally in (("by T", report.families_by_T), ("by shape", report.families_by_shape)):
        if tally is not None:
            lines.append(f"{name}: " + "  ".join(f"{k}:{v}" for k, v in sorted(tally.items())))
    lines.append(f"counterexamples: {len(report.counterexamples)}")
    lines.append(f"wall_time: {report.wall_time:.2f}s  workers: {report.workers}  order: desc")
    _print_lines(lines)
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

    def enum_flags(p, unbounded: bool = True):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--up-to-iso", action="store_true", dest="up_to_iso")
        if unbounded:  # the oracle is capped by its pool size instead
            p.add_argument("--unbounded", action="store_true", help="acknowledge a census-scale run (n=6, t<=2)")

    p = sub.add_parser("enumerate", help="dump all families (canonical forms when --up-to-iso)")
    enum_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("oracle", help="brute-force oracle listing for small configurations")
    enum_flags(p, unbounded=False)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run a verification campaign")
    enum_flags(p)
    p.add_argument("--workers", type=int, default=None, help="default: UCF_WORKERS or CPU count")
    p.add_argument("--checkpoint", help="resumable progress file")
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--checks", help=f"comma list from {','.join(CHECK_NAMES)} (default frankl,s_frankl)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
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
