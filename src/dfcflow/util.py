"""Hex and fixed-point helpers used throughout the pipeline.

Token amounts, debt balances, prices and USD values are `int` counts of
1/:data:`SCALE` units from decoding through the report.  The scale is
10**36: 18 digits for the largest token `decimals`, plus 18 guard digits
for the one division the ledger makes (see `dfcflow.ledger`).  Every
numeric CSV cell, amount or price, is a plain decimal of at most 36
places, read by :func:`parse_fixed` and written by :func:`format_fixed`.
Binary floating point only appears in the statistics layer.  The
rounding formatter and the calendar-month helpers of the report tables
live in `dfcflow.report`, their only user, so that this module, which
every stage imports, loads no `datetime`.
"""

from __future__ import annotations

import re

# decimal places of a fixed-point count; SCALE units make one token or dollar
PLACES = 36
SCALE = 10**PLACES


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


def parse_fixed(text: str) -> int:
    """A '[-]digits[.digits]' cell with at most 36 decimals -> its count of
    1/SCALE units; the inverse of :func:`format_fixed`.

    Any other text, an 'n/d' fraction or an exponent included, raises
    ValueError; its message is the one a bad amount or price cell reports.
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


# whether a cell is an address in the form the pipeline writes: 0x and 40
# lowercase hex digits
is_address = re.compile("0x[0-9a-f]{40}").fullmatch


def address_cell_error(**cells: str) -> ValueError:
    """The error for the first of `cells` (column name -> text) that
    `is_address` rejects; readers check address cells inline."""
    name, text = next((name, text) for name, text in cells.items() if not is_address(text))
    return ValueError(f"invalid {name} {text!r}: expected 0x and 40 lowercase hex digits")


def format_fixed(units: int) -> str:
    """A count of 1/SCALE units as a plain decimal with no trailing zeros
    (`4914698.71`, `0`)."""
    whole, frac = divmod(abs(units), SCALE)
    sign = "-" if units < 0 else ""
    if not frac:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).rjust(PLACES, '0').rstrip('0')}"
