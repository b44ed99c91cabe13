from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from dfcflow.util import SCALE, format_exact, format_fixed, parse_fixed, parse_hex, parse_ratio


def parse_amount(text):
    """A price cell as the price reader takes it, as one Fraction."""
    return F(*parse_ratio(text))


@given(st.fractions())
@example(F(0))
@example(F(-7))
@example(F(-1, 3))
@example(F(-5, 8))
@example(F(123_456_789, 10**18))
def test_parse_amount_reads_back_format_exact(x):
    assert parse_amount(format_exact(x)) == x


@pytest.mark.parametrize("text, value", [
    ("12.3400", F(617, 50)),
    ("-0.5", F(-1, 2)),
    ("007", F(7)),
    ("-4/6", F(-2, 3)),
])
def test_parse_amount_accepts_both_written_forms(text, value):
    assert parse_amount(text) == value


@pytest.mark.parametrize("text", [
    "abc", "1.2.3", "1.-5", "1/", "1e5", "", "-", "+1", " 1.5", "1_000", ".5", "5.", "1/-3",
])
def test_parse_amount_rejects_other_text_like_fraction(text):
    with pytest.raises(ValueError) as info:
        parse_amount(text)
    assert str(info.value) == f"Invalid literal for Fraction: {text!r}"


def test_parse_ratio_keeps_the_written_denominator():
    assert parse_ratio("12.3400") == (123400, 10_000)
    assert parse_ratio("-4/6") == (-4, 6)
    assert parse_ratio("007") == (7, 1)
    with pytest.raises(ZeroDivisionError, match=r"^Fraction\(3, 0\)$"):
        parse_ratio("3/0")


@given(st.integers(-10**60, 10**60))
@example(0)
@example(-1)
@example(SCALE)
@example(-15 * SCALE // 10)
def test_parse_fixed_reads_back_format_fixed(units):
    text = format_fixed(units)
    assert parse_fixed(text) == units
    # the same text the exact-rational formatter gives for the value
    assert text == format_exact(F(units, SCALE))


@pytest.mark.parametrize("text, units", [
    ("12.3400", 1234 * SCALE // 100),
    ("-0.5", -SCALE // 2),
    ("007", 7 * SCALE),
    ("0." + "0" * 35 + "1", 1),
])
def test_parse_fixed_accepts_decimals(text, units):
    assert parse_fixed(text) == units


@pytest.mark.parametrize("text", [
    "-4/6", "1/3", "0." + "0" * 36 + "1",
    "abc", "1.2.3", "1.-5", "1e5", "", "-", "+1", " 1.5", "1_000", ".5", "5.", "\u0661",
])
def test_parse_fixed_rejects_fractions_and_other_text(text):
    with pytest.raises(ValueError) as info:
        parse_fixed(text)
    assert str(info.value) == (
        f"invalid amount {text!r}: expected [-]digits[.digits], at most 36 decimals"
    )


@pytest.mark.parametrize("value", [
    "0xab  cd", "0x\nab\n", "0x ab ", "0xab\r\ncd", "0xab\x0bcd\x0c", "0x" + "ab" * 31 + "  ",
])
def test_parse_hex_rejects_whitespace_inside_the_hex(value):
    # bytes.fromhex alone skips ASCII whitespace between bytes
    with pytest.raises(ValueError) as info:
        parse_hex(value)
    assert str(info.value) == f"invalid hex string {value!r}"


def test_parse_hex_reads_either_case():
    assert parse_hex("0xABcd") == parse_hex("0xabCD") == b"\xab\xcd"
    assert parse_hex("0x") == b""
    with pytest.raises(ValueError, match="expected 0x-prefixed hex string"):
        parse_hex("0XABCD")
