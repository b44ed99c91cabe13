"""Hex, exact-decimal and calendar helpers used throughout the pipeline.

Amounts and prices are exact rationals (`fractions.Fraction`) end to end;
binary floating point only appears in the statistics layer.  Inside a
price series prices are held as integer units over a per-key scale (see
`dfcflow.market`), and the report sums exact values as integer numerators
per denominator (:func:`exact_sums`); both hand out `Fraction`s at their
API.  Rendering to CSV goes through the fixed-point formatters here so
repeated runs emit byte-identical files.
"""

from __future__ import annotations

import re
from collections import defaultdict
from datetime import datetime, timezone
from fractions import Fraction
from typing import Hashable, Iterable

ZERO = Fraction(0)

# the two forms format_exact writes: [-]digits[.digits] and [-]digits/digits
_EXACT = re.compile(r"(-?[0-9]+)(?:\.([0-9]+)|/([0-9]+))?")


def parse_hex(value: str, expected_bytes: int | None = None) -> bytes:
    """Decode a 0x-prefixed hex string; empty payloads are '0x'."""
    if not isinstance(value, str) or not value.startswith("0x"):
        raise ValueError(f"expected 0x-prefixed hex string, got {value!r}")
    body = value[2:]
    if len(body) % 2 != 0:
        raise ValueError(f"odd-length hex string {value!r}")
    try:
        raw = bytes.fromhex(body)
    except ValueError as exc:
        raise ValueError(f"invalid hex string {value!r}") from exc
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
    match = _EXACT.fullmatch(text)
    if match is None:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    whole, frac, den = match.groups()
    if frac is not None:
        return int(whole + frac), 10 ** len(frac)
    num, den = int(whole), int(den) if den else 1
    if den == 0:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    return num, den


def parse_amount(text: str) -> Fraction:
    """Exact decimal or 'n/d' string -> Fraction; see :func:`parse_ratio`."""
    return Fraction(*parse_ratio(text))


def exact_sums(items: Iterable[tuple[Hashable, Fraction]]) -> dict[Hashable, Fraction]:
    """Exact sum of the values per key, for (key, value) pairs.

    Numerators are added as ints per (key, denominator), and each key's few
    distinct denominators are combined once at the end, so a sum of many
    values costs one int addition each instead of one `Fraction` addition.
    Keys that never occur are absent from the result.
    """
    numerators: dict[tuple, int] = defaultdict(int)
    for key, value in items:
        numerators[key, value.denominator] += value.numerator
    sums: dict[Hashable, Fraction] = {}
    for (key, den), num in numerators.items():
        part = Fraction(num, den)
        sums[key] = sums[key] + part if key in sums else part
    return sums


def round_half_even(x: Fraction, places: int = 0) -> Fraction:
    """Round an exact rational to `places` decimal digits, ties to even."""
    scale = 10**places
    scaled = x * scale
    n, r = divmod(scaled.numerator, scaled.denominator)
    # divmod keeps 0 <= r < den for negative n too, so the same tie rule works
    double = 2 * r
    if double > scaled.denominator or (double == scaled.denominator and n % 2 != 0):
        n += 1
    return Fraction(n, scale)


def format_exact(x: Fraction) -> str:
    """Lossless rendering for checkpoint files.

    Values with a terminating decimal expansion render as plain decimals;
    anything else (swap-tainted balances can carry factors like 1/3) falls
    back to 'numerator/denominator'.  Both forms parse back with
    :func:`parse_amount`.
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


def format_places(x: Fraction, places: int) -> str:
    """Fixed-point rendering with exactly `places` fractional digits."""
    sign = "-" if x < 0 else ""
    rounded = round_half_even(abs(x), places)
    units = rounded.numerator * (10**places // rounded.denominator)
    digits = str(units).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return sign + f"{digits[:-places]}.{digits[-places:]}"


def format_usd_millions(x: Fraction) -> str:
    """Whole-number USD millions, matching the monthly report presentation."""
    return format_places(x / 1_000_000, 0)


def month_key(timestamp: int) -> str:
    """UTC calendar month bucket, e.g. 1588598520 -> '2020-05'."""
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).strftime("%Y-%m")


def month_range(first: str, last: str) -> list[str]:
    """All months from `first` to `last` inclusive ('YYYY-MM' keys)."""
    fy, fm = (int(p) for p in first.split("-"))
    ly, lm = (int(p) for p in last.split("-"))
    out = []
    y, m = fy, fm
    while (y, m) <= (ly, lm):
        out.append(f"{y:04d}-{m:02d}")
        m += 1
        if m == 13:
            y, m = y + 1, 1
    return out
