"""USD price series of mixed granularity and event-time valuation.

Prices are carry-forward: a lookup returns the latest point at or before
the query time, provided the point is no staler than twice the series'
declared granularity (hourly for BTC/ETH/USDC/DAI, daily for USDT).
Carry-forward avoids lookahead bias; the staleness bound keeps gaps from
silently valuing events with week-old prices.

Each key's prices are held as integer units over one scale, the least
common denominator of that key's prices (10**4 for a file of prices with
at most four decimals), so loading and lookups make no `Fraction` per
point.  Prices are exact `Fraction`s at the API.  `value_usd` takes a
token amount and returns a USD value, both as fixed-point `int` counts
of 1/`util.SCALE` units, floored to a whole unit (the rounding rule of
`dfcflow.ledger`).

Series are immutable after load and safe for concurrent readers.
"""

from __future__ import annotations

import json
import math
import operator
import time
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError, PriceFetchError, TableError, ValuationError
from .registry import Currency
from .tables import Table
from .util import format_exact, parse_ratio, uint_cell_error

HOUR = 3600
DAY = 86400

# declared sampling granularity per price key, in seconds
GRANULARITY = {"BTC": HOUR, "ETH": HOUR, "USDC": HOUR, "DAI": HOUR, "USDT": DAY}

# a lookup accepts a point at most this many granularities old
DEFAULT_STALENESS_MULTIPLIER = 2


def _check_point(key: str, timestamp: int, numerator: int, error=ConfigError) -> None:
    if key not in GRANULARITY:
        raise error(f"unknown price key {key!r}")
    if numerator <= 0:
        raise error(f"{key} price at {timestamp} is not positive")


def _not_increasing(key: str, timestamp: int) -> ConfigError:
    return ConfigError(f"{key} timestamps must be strictly increasing (got {timestamp})")


class PriceSeries:
    """Sorted (timestamp, price) points per price key; a key's prices are
    `_units[key][i] / _scales[key]`.  Two series are equal when they hold
    the same points at the same scales."""

    def __init__(self):
        self._timestamps: dict[str, list[int]] = {}
        self._units: dict[str, list[int]] = {}
        self._scales: dict[str, int] = {}

    def __eq__(self, other):
        if not isinstance(other, PriceSeries):
            return NotImplemented
        return ((self._timestamps, self._units, self._scales)
                == (other._timestamps, other._units, other._scales))

    def add_point(self, key: str, timestamp: int, price: Fraction) -> None:
        _check_point(key, timestamp, price.numerator)
        ts_list = self._timestamps.setdefault(key, [])
        if ts_list and timestamp <= ts_list[-1]:
            raise _not_increasing(key, timestamp)
        units = self._units.setdefault(key, [])
        scale = self._scales.setdefault(key, 1)
        if scale % price.denominator:
            rescaled = math.lcm(scale, price.denominator)
            factor = rescaled // scale
            units[:] = [u * factor for u in units]
            self._scales[key] = scale = rescaled
        ts_list.append(timestamp)
        units.append(price.numerator * (scale // price.denominator))

    @property
    def keys(self) -> frozenset[str]:
        return frozenset(self._timestamps)

    def span(self, key: str) -> tuple[int, int]:
        ts = self._timestamps[key]
        return ts[0], ts[-1]

    def units_at(self, key: str, timestamp: int) -> int:
        """`price_at` in units of 1 / the key's scale: two lookups on one
        key give the price ratio as an int division."""
        ts_list = self._timestamps.get(key)
        if not ts_list:
            raise ValuationError(key, timestamp, "empty series")
        idx = bisect_right(ts_list, timestamp) - 1
        if idx < 0:
            raise ValuationError(key, timestamp, "before first price point")
        age = timestamp - ts_list[idx]
        bound = DEFAULT_STALENESS_MULTIPLIER * GRANULARITY[key]
        if age > bound:
            raise ValuationError(
                key, timestamp, f"nearest point is {age}s old, bound {bound}s"
            )
        return self._units[key][idx]

    def price_at(self, key: str, timestamp: int) -> Fraction:
        """Latest price at or before `timestamp`, within the staleness bound."""
        return Fraction(self.units_at(key, timestamp), self._scales[key])

    def value_usd(self, amount: int, currency: Currency, timestamp: int) -> int:
        """amount x carry-forward price, in fixed-point units, floored."""
        if amount < 0:
            raise ValueError("cannot value a negative amount")
        if amount == 0:
            return 0
        key = currency.price_key
        return amount * self.units_at(key, timestamp) // self._scales[key]

    @classmethod
    def from_csv(cls, path: str | Path) -> "PriceSeries":
        """Price file: columns price_key,timestamp,price_usd (exact decimal).

        Rows may come in any order; a key whose rows are out of time order
        is sorted.  An unknown key or a non-positive price names its line;
        a repeated timestamp names the file.
        """
        points: dict[str, list[tuple[str, int, int, int]]] = {}
        for row in PRICES.read(path):
            points.setdefault(row[0], []).append(row)
        series = cls()
        for key in sorted(points):
            rows = points[key]
            ts_list = [row[1] for row in rows]
            if not all(map(operator.lt, ts_list, ts_list[1:])):
                rows.sort(key=operator.itemgetter(1))
                ts_list = [row[1] for row in rows]
                for earlier, ts in zip(ts_list, ts_list[1:]):
                    if ts <= earlier:
                        raise TableError(path, str(_not_increasing(key, ts)))
            denominators = {row[3] for row in rows}
            scale = math.lcm(*denominators)
            factors = {den: scale // den for den in denominators}
            units = [num * factors[den] for _, _, num, den in rows]
            # the least common denominator, so a series equals itself read back
            common = math.gcd(scale, *units)
            if common > 1:
                scale //= common
                units = [u // common for u in units]
            series._timestamps[key] = ts_list
            series._units[key] = units
            series._scales[key] = scale
        return series

    def to_csv(self, path: str | Path) -> None:
        PRICES.write(path, (
            (key, ts, format_exact(Fraction(units, self._scales[key])))
            for key in sorted(self._timestamps)
            for ts, units in zip(self._timestamps[key], self._units[key])
        ))


def _price_row(key: str, timestamp: str, price: str) -> tuple[str, int, int, int]:
    if not (timestamp.isdigit() and timestamp.isascii()):
        raise uint_cell_error(timestamp=timestamp)
    timestamp = int(timestamp)
    whole, dot, frac = price.partition(".")
    if whole.isdigit() and frac.isdigit() and price.isascii():
        # a plain decimal cell, as format_exact writes most prices
        num, den = int(whole + frac), 10 ** len(frac)
    else:
        num, den = parse_ratio(price)
    # a ValueError, so the table reader names the line
    _check_point(key, timestamp, num, ValueError)
    return key, timestamp, num, den


PRICES = Table(("price_key", "timestamp", "price_usd"), from_row=_price_row)


def fetch_prices(fetch_config: dict) -> PriceSeries:
    """Pull candles from a configured HTTP endpoint into a PriceSeries.

    Config keys: url_template (with {key}, {start}, {end} placeholders),
    key_map (price key -> endpoint symbol), start, end (UTC seconds),
    optional timestamp_field / price_field (indexes into each candle row,
    defaults 0 and 3), optional delay_seconds between requests.

    One GET per price key through `urllib.request`, which honours the
    proxy environment variables, with a 30 s timeout.  A failed request,
    an HTTP error status, a body that is not JSON or a candle that does
    not parse raises PriceFetchError naming the key and the URL.

    Runtime fetching is opt-in; pipeline runs default to price files so
    results stay offline-reproducible.
    """
    template = fetch_config.get("url_template")
    key_map = fetch_config.get("key_map")
    if not template or not isinstance(key_map, dict):
        raise ConfigError("price fetch config needs url_template and key_map")
    ts_field = fetch_config.get("timestamp_field", 0)
    price_field = fetch_config.get("price_field", 3)
    delay = fetch_config.get("delay_seconds", 0)
    start = fetch_config.get("start")
    end = fetch_config.get("end")
    # loaded only when prices are fetched
    import http.client
    import urllib.error
    import urllib.request

    rows: list[tuple[str, int, Fraction]] = []
    for key in sorted(key_map):
        url = template.format(key=key_map[key], start=start, end=end)
        try:
            with urllib.request.urlopen(url, timeout=30) as response:
                candles = json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError) as exc:
            if isinstance(exc, urllib.error.HTTPError):
                exc.close()  # an error reply holds its connection open
            raise PriceFetchError(f"{key} candles from {url}: {exc}") from exc
        if not isinstance(candles, list):
            raise PriceFetchError(f"{key} candles from {url}: reply is not a list")
        try:
            rows.extend(
                (key, int(candle[ts_field]), Fraction(str(candle[price_field])))
                for candle in candles
            )
        except (LookupError, TypeError, ValueError) as exc:
            raise PriceFetchError(f"{key} candles from {url}: bad candle: {exc}") from exc
        if delay:
            time.sleep(delay)
    rows.sort(key=lambda r: (r[0], r[1]))
    series = PriceSeries()
    seen: set[tuple[str, int]] = set()
    for key, ts, price in rows:
        if (key, ts) in seen:
            continue
        seen.add((key, ts))
        series.add_point(key, ts, price)
    return series


def make_valuer(series: PriceSeries, currencies: dict[str, Currency]):
    """Close over a price series: (symbol, amount, ts) -> USD, fixed point."""

    def value(symbol: str, amount: int, timestamp: int) -> int:
        return series.value_usd(amount, currencies[symbol], timestamp)

    return value
