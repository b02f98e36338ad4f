"""Plain-text family files.

The first significant line is ``n=<int>``; every further significant
line is one member set, either ``{}`` for the empty set or ascending
comma-separated element labels like ``1,2,6``.  Blank lines and ``#``
comments are ignored.  Duplicate members are a parse error.  Only a
line feed ends a line: a carriage return before it is whitespace, and a
form feed or another Unicode line break does not split a line.
"""

from __future__ import annotations

from .core import MAX_GROUND_SIZE, MIN_GROUND_SIZE, SetFamily, mask_from_elements, mask_tables
from .errors import ParseError


def parse_family(text: str) -> SetFamily:
    """Parse a family file; raises ParseError with a 1-based line number."""
    n: int | None = None
    masks: list[int] = []
    seen: dict[int, int] = {}
    spelled: dict[str, int] = {}  # the canonical member lines, once n is known
    for lineno, raw in enumerate(text.split("\n"), start=1):
        mask = spelled.get(raw)
        if mask is None:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if n is None:
                if not line.startswith("n="):
                    raise ParseError("expected header 'n=<int>'", lineno)
                try:
                    n = int(line[2:])
                except ValueError:
                    raise ParseError(f"bad ground set size {line[2:]!r}", lineno)
                if not MIN_GROUND_SIZE <= n <= MAX_GROUND_SIZE:
                    raise ParseError(f"ground set size {n} outside {MIN_GROUND_SIZE}..{MAX_GROUND_SIZE}", lineno)
                spelled = mask_tables(n).masks
                continue
            mask = _parse_member(line, n, lineno)
        if mask in seen:
            raise ParseError(
                f"duplicate member (first seen on line {seen[mask]})", lineno
            )
        seen[mask] = lineno
        masks.append(mask)
    if n is None:
        raise ParseError("missing header 'n=<int>'", 1)
    return SetFamily.from_masks(n, masks)


def _parse_member(line: str, n: int, lineno: int) -> int:
    if line == "{}":
        return 0
    parts = line.split(",")
    elements: list[int] = []
    for part in parts:
        part = part.strip()
        try:
            e = int(part)
        except ValueError:
            raise ParseError(f"bad element {part!r}", lineno)
        if elements and e <= elements[-1]:
            raise ParseError("elements must be strictly ascending", lineno)
        elements.append(e)
    try:
        return mask_from_elements(elements, n)
    except ValueError as exc:
        raise ParseError(str(exc), lineno)


def format_family(family: SetFamily) -> str:
    """Render a family in the file format (members in ascending mask order)."""
    lines = mask_tables(family.n).lines
    return "\n".join([f"n={family.n}", *map(lines.__getitem__, family.members)]) + "\n"
