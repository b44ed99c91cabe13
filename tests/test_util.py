from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from dfcflow.util import SCALE, format_fixed, parse_fixed, parse_hex


def parse_amount(text):
    """A numeric cell, amount or price, as one Fraction: every such cell
    has `parse_fixed`'s grammar."""
    return F(parse_fixed(text), SCALE)


@pytest.mark.parametrize("text, value", [
    ("12.3400", F(617, 50)),
    ("-0.5", F(-1, 2)),
    ("007", F(7)),
])
def test_parse_amount_accepts_both_written_forms(text, value):
    # with and without a decimal point
    assert parse_amount(text) == value


@pytest.mark.parametrize("text", [
    "abc", "1.2.3", "1.-5", "1/", "1e5", "", "-", "+1", " 1.5", "1_000", ".5", "5.", "1/-3",
])
def test_parse_amount_rejects_other_text_like_fraction(text):
    # unlike Fraction(), which reads `1e5`, `+1`, ` 1.5`, `1_000`, `.5` and `5.`
    with pytest.raises(ValueError) as info:
        parse_amount(text)
    assert str(info.value) == (
        f"invalid amount {text!r}: expected [-]digits[.digits], at most 36 decimals"
    )


@given(st.integers(-10**60, 10**60))
@example(0)
@example(-1)
@example(SCALE)
@example(-15 * SCALE // 10)
def test_parse_fixed_reads_back_format_fixed(units):
    text = format_fixed(units)
    assert parse_fixed(text) == units
    assert F(text) == F(units, SCALE)


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
