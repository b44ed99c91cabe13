"""Hex, fixed-point and exact-price helpers used throughout the pipeline.

Token amounts, debt balances and USD values are `int` counts of
1/:data:`SCALE` units from decoding through the report.  The scale is
10**36: 18 digits for the largest token `decimals`, plus 18 guard digits
for the one division the ledger makes (see `dfcflow.ledger`).  Checkpoint
files write such a count as a plain decimal (:func:`format_fixed`,
:func:`parse_fixed`).  Prices stay exact rationals, held as integer units
over a per-key scale (see `dfcflow.market`) and written to the price file
by :func:`format_exact`.  Binary floating point only appears in the
statistics layer.  The rounding formatters and the calendar-month
helpers of the report tables live in `dfcflow.report`, their only user,
so that this module, which every stage imports, loads neither
`fractions` nor `datetime`.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

# decimal places of a fixed-point count; SCALE units make one token or dollar
PLACES = 36
SCALE = 10**PLACES

# the integer and fraction forms of parse_ratio: [-]digits[/digits]
_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_hex(value: str, expected_bytes: int | None = None) -> bytes:
    """Decode a 0x-prefixed hex string, digits in either case and no
    whitespace; empty payloads are '0x'."""
    if not isinstance(value, str) or not value.startswith("0x"):
        raise ValueError(f"expected 0x-prefixed hex string, got {value!r}")
    body = value[2:]
    if len(body) % 2 != 0:
        raise ValueError(f"odd-length hex string {value!r}")
    try:
        raw = bytes.fromhex(body)
    except ValueError as exc:
        raise ValueError(f"invalid hex string {value!r}") from exc
    if 2 * len(raw) != len(body):  # fromhex skipped whitespace
        raise ValueError(f"invalid hex string {value!r}")
    if expected_bytes is not None and len(raw) != expected_bytes:
        raise ValueError(
            f"expected {expected_bytes} bytes, got {len(raw)} in {value!r}"
        )
    return raw


def to_hex(raw: bytes) -> str:
    return "0x" + raw.hex()


def parse_ratio(text: str) -> tuple[int, int]:
    """Exact decimal or 'n/d' string, as :func:`format_exact` writes it ->
    (numerator, denominator), with the denominator positive but not reduced:
    '1.50' gives (150, 100).

    Signs other than a leading '-', blanks, exponents and '_' separators
    are rejected with the message `Fraction(str)` gives; a zero denominator
    raises the `ZeroDivisionError` that `Fraction(n, 0)` raises.
    """
    whole, dot, frac = text.partition(".")
    if dot:
        digits = whole[1:] if whole[:1] == "-" else whole
        if digits.isdigit() and frac.isdigit() and text.isascii():
            return int(whole + frac), 10 ** len(frac)
    else:
        match = _RATIO.fullmatch(text)
        if match is not None:
            num, den = int(match[1]), int(match[2] or 1)
            if den == 0:
                raise ZeroDivisionError(f"Fraction({num}, 0)")
            return num, den
    raise ValueError(f"Invalid literal for Fraction: {text!r}")


def parse_fixed(text: str) -> int:
    """A '[-]digits[.digits]' cell with at most 36 decimals -> its count of
    1/SCALE units; the inverse of :func:`format_fixed`.

    Any other text, an 'n/d' fraction included, raises ValueError.
    """
    whole, dot, frac = text.partition(".")
    digits = whole[1:] if whole[:1] == "-" else whole
    if (digits.isdigit() and text.isascii() and len(frac) <= PLACES
            and (frac.isdigit() or not dot)):
        return int(whole + frac) * 10 ** (PLACES - len(frac))
    raise ValueError(
        f"invalid amount {text!r}: expected [-]digits[.digits], at most {PLACES} decimals"
    )


def parse_amount(name: str, text: str) -> int:
    """`parse_fixed` for an amount cell, which must not be negative; the
    error names the column `name`."""
    amount = parse_fixed(text)
    if amount < 0:
        raise ValueError(f"negative {name} {text!r}")
    return amount


def uint_cell_error(**cells: str) -> ValueError:
    """The error for the first of `cells` (column name -> text) that is
    not a plain run of ASCII digits.  Readers check integer cells inline
    with `isdigit()` and `isascii()`, since `int()` also takes blanks, a
    sign, `_` separators and non-ASCII digits."""
    name, text = next((name, text) for name, text in cells.items()
                      if not (text.isdigit() and text.isascii()))
    return ValueError(f"invalid {name} {text!r}: expected ASCII digits")


def format_fixed(units: int) -> str:
    """A count of 1/SCALE units as a plain decimal with no trailing zeros
    (`4914698.71`, `0`), the same text :func:`format_exact` gives for the
    value."""
    whole, frac = divmod(abs(units), SCALE)
    sign = "-" if units < 0 else ""
    if not frac:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).rjust(PLACES, '0').rstrip('0')}"


def format_exact(x: Fraction) -> str:
    """Lossless rendering of a price for the price file.

    Values with a terminating decimal expansion render as plain decimals;
    anything else (a price such as 1/3) falls back to
    'numerator/denominator'.  Both forms parse back with :func:`parse_ratio`.
    """
    den = x.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{x.numerator}/{x.denominator}"
    places = max(twos, fives)
    if places == 0:
        return str(x.numerator)
    sign = "-" if x < 0 else ""
    units = abs(x.numerator) * (10**places // abs(x.denominator))
    digits = str(units).rjust(places + 1, "0")
    whole, frac = digits[:-places], digits[-places:]
    frac = frac.rstrip("0")
    return sign + (f"{whole}.{frac}" if frac else whole)
