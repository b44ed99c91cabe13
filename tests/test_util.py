from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from dfcflow.util import exact_sums, format_exact, parse_amount, parse_ratio


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


# n/d values of either sign, and decimals over a few powers of ten
exact_values = st.one_of(
    st.fractions(),
    st.builds(F, st.integers(-10**20, 10**20), st.sampled_from([1, 10, 100, 10**4, 10**18])),
)


@given(st.lists(st.tuples(st.integers(0, 40), exact_values), max_size=80))
@example([(0, F(1, 3)), (0, F(-1, 3)), (1, F(5, 2))])
@example([(0, F(1, d)) for d in range(1, 40)] + [(1, F(-7, 10**18))])
def test_exact_sums_equal_plain_sums(items):
    expected: dict = {}
    for key, value in items:
        expected.setdefault(key, []).append(value)
    sums = exact_sums(items)
    assert sums == {key: sum(values) for key, values in expected.items()}
    assert all(type(value) is F for value in sums.values())
