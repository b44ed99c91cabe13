from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from dfcflow.util import format_exact, parse_amount


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
