from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ucf import ParseError, SetFamily, format_family, parse_family, full_mask


def family_strategy(n: int):
    return st.sets(
        st.integers(min_value=0, max_value=full_mask(n)), min_size=0, max_size=10
    ).map(lambda ms: SetFamily.from_masks(n, ms))


class TestParse:
    def test_basic(self):
        f = parse_family("n=6\n{}\n1,2,3\n1,2,3,4,5,6\n")
        assert f.n == 6
        assert f.members == (0, 7, 63)

    def test_comments_and_blanks(self):
        text = "# a family\n\nn=3  # ground set\n\n{}\n1,2  # pair\n"
        f = parse_family(text)
        assert f.n == 3
        assert f.members == (0, 3)

    def test_missing_header(self):
        with pytest.raises(ParseError) as exc:
            parse_family("")
        assert exc.value.line == 1
        with pytest.raises(ParseError) as exc:
            parse_family("1,2\n")
        assert "n=" in str(exc.value)

    def test_bad_header_value(self):
        with pytest.raises(ParseError):
            parse_family("n=x\n")

    def test_ground_size_out_of_range(self):
        with pytest.raises(ParseError):
            parse_family("n=1\n")
        with pytest.raises(ParseError):
            parse_family("n=13\n")

    def test_duplicate_member_cites_first_line(self):
        with pytest.raises(ParseError) as exc:
            parse_family("n=4\n1,2\n3\n1,2\n")
        assert exc.value.line == 4
        assert "line 2" in str(exc.value)

    def test_elements_must_ascend(self):
        with pytest.raises(ParseError):
            parse_family("n=4\n2,1\n")
        with pytest.raises(ParseError):
            parse_family("n=4\n1,1\n")

    def test_bad_element_token(self):
        with pytest.raises(ParseError) as exc:
            parse_family("n=4\n1,a\n")
        assert exc.value.line == 2

    def test_element_out_of_range(self):
        with pytest.raises(ParseError):
            parse_family("n=4\n1,5\n")
        with pytest.raises(ParseError):
            parse_family("n=4\n0,1\n")

    def test_error_message_prefixes_line(self):
        with pytest.raises(ParseError) as exc:
            parse_family("n=4\nbogus!\n")
        assert str(exc.value).startswith("line 2: ")


class TestFormat:
    def test_format_family(self):
        f = SetFamily.from_sets(6, [[], [1, 2, 3], [1, 2, 3, 4, 5, 6]])
        assert format_family(f) == "n=6\n{}\n1,2,3\n1,2,3,4,5,6\n"

    @given(st.integers(min_value=2, max_value=12).flatmap(family_strategy))
    def test_round_trip(self, family):
        text = format_family(family)
        assert text == f"n={family.n}\n" + "".join(f"{spell(mask, family.n)}\n" for mask in family.members)
        assert parse_family(text) == family

    @given(st.integers(min_value=2, max_value=12).flatmap(family_strategy), st.randoms())
    def test_other_spellings_parse_alike(self, family, rnd):
        # spaces, tabs, comments and CRLF miss the canonical-line lookup
        lines = [f" n={family.n}"]
        for mask in family.members:
            line = spell(mask, family.n)
            line = rnd.choice([line, " " + line.replace(",", ", "), "\t" + line + "  # c", line + "\r"])
            lines += [line] + rnd.choice([[], [""], ["# note"]])
        assert parse_family("\n".join(lines)) == family


def spell(mask: int, n: int) -> str:
    """A member line of the file format, built bit by bit."""
    return ",".join(str(b + 1) for b in range(n) if mask >> b & 1) or "{}"


class TestLines:
    def test_only_a_line_feed_ends_a_line(self):
        # a form feed is whitespace inside line 2, not a line break
        with pytest.raises(ParseError) as exc:
            parse_family("n=3\n1\x0c\n1\n")
        assert exc.value.line == 3
        assert "line 2" in str(exc.value)
        for sep in ("\x0b", "\x1c", "\x85", "\u2028", "\u2029"):
            with pytest.raises(ParseError) as exc:
                parse_family(f"n=3\n1{sep}\n{{}}\n1\n")
            assert exc.value.line == 4

    def test_crlf_parses_like_lf(self):
        text = "# a family\n\nn=4\n{}\n1,2  # pair\n 3, 4\n1,2,3,4\n"
        assert parse_family(text.replace("\n", "\r\n")) == parse_family(text)
        with pytest.raises(ParseError) as lf:
            parse_family("n=4\n1,2\n\n1,2\n")
        with pytest.raises(ParseError) as crlf:
            parse_family("n=4\r\n1,2\r\n\r\n1,2\r\n")
        assert str(crlf.value) == str(lf.value) == "line 4: duplicate member (first seen on line 2)"
