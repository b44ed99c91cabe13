"""Hex, exact-decimal and calendar helpers used throughout the pipeline.

Amounts and prices are exact rationals (`fractions.Fraction`) end to end;
binary floating point only appears in the statistics layer.  Rendering to
CSV goes through the fixed-point formatters here so repeated runs emit
byte-identical files.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone
from fractions import Fraction

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


def parse_amount(text: str) -> Fraction:
    """Exact decimal or 'n/d' string, as :func:`format_exact` writes it -> Fraction.

    Signs other than a leading '-', blanks, exponents and '_' separators
    are rejected with the message `Fraction(str)` gives.
    """
    match = _EXACT.fullmatch(text)
    if match is None:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    whole, frac, den = match.groups()
    if frac is not None:
        return Fraction(int(whole + frac), 10 ** len(frac))
    return Fraction(int(whole), int(den) if den else 1)


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
