"""USD price series of mixed granularity and event-time valuation.

Prices are carry-forward: a lookup returns the latest point at or before
the query time, provided the point is no staler than twice the series'
declared granularity (`registry.GRANULARITY`: hourly, daily for USDT).
Carry-forward avoids lookahead bias; the staleness bound keeps gaps from
silently valuing events with week-old prices.

A series is built once, by its constructor, from points in any order;
`from_csv`, `fetch_prices` and `synth.generate_prices` all build through
it.  A price cell, in the price file or a fetched candle, is read by
`util.parse_fixed` like every numeric cell, and a price is held as what
it reads: an `int` count of 1/`util.SCALE` dollars, the unit of every
amount and USD value, so building and lookups make no `Fraction`; only
`price_at` returns one.  `value_usd` takes a token amount and returns a
USD value, floored to a whole unit (the rounding rule of
`dfcflow.ledger`).
"""

from __future__ import annotations

import json
import math
import operator
import time
from bisect import bisect_right
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError, PriceFetchError, TableError, ValuationError
from .registry import DAY, GRANULARITY, HOUR, Currency  # noqa: F401 (DAY, HOUR re-exported)
from .tables import Table
from .util import SCALE, format_fixed, parse_fixed, uint_cell_error

if TYPE_CHECKING:
    from fractions import Fraction

# a lookup accepts a point at most this many granularities old
DEFAULT_STALENESS_MULTIPLIER = 2


def _check_point(key: str, timestamp: int, units: int, error=ConfigError) -> None:
    if key not in GRANULARITY:
        raise error(f"unknown price key {key!r}")
    if units <= 0:
        raise error(f"{key} price at {timestamp} is not positive")


class PriceSeries:
    """Sorted (timestamp, price) points per price key, each price an `int`
    count of 1/`util.SCALE` dollars.  Two series are equal when they hold
    the same points."""

    def __init__(self, points=()):
        """A series of `(key, timestamp, units)` points, in any order, the
        price in 1/`util.SCALE` dollars.  An unknown key, a price that is
        not positive or a repeated timestamp raises ConfigError."""
        columns: dict[str, tuple[list[int], list[int]]] = {}
        for key, timestamp, price in points:
            column = columns.get(key) or columns.setdefault(key, ([], []))
            column[0].append(timestamp)
            column[1].append(price)
        self._timestamps: dict[str, list[int]] = {}
        self._units: dict[str, list[int]] = {}
        for key in sorted(columns):
            ts_list, units = columns.pop(key)
            if not all(map(operator.lt, ts_list, ts_list[1:])):
                order = sorted(range(len(ts_list)), key=ts_list.__getitem__)
                ts_list, units = [ts_list[i] for i in order], [units[i] for i in order]
                for earlier, timestamp in zip(ts_list, ts_list[1:]):
                    if timestamp == earlier:
                        raise ConfigError(
                            f"{key} timestamps must be strictly increasing (got {timestamp})")
            if key not in GRANULARITY or min(units) <= 0:
                for timestamp, price in zip(ts_list, units):
                    _check_point(key, timestamp, price)
            self._timestamps[key] = ts_list
            self._units[key] = units

    def __eq__(self, other):
        if not isinstance(other, PriceSeries):
            return NotImplemented
        return (self._timestamps, self._units) == (other._timestamps, other._units)

    @property
    def keys(self) -> frozenset[str]:
        return frozenset(self._timestamps)

    def sizes(self) -> dict[str, int]:
        """The number of points of each key."""
        return {key: len(ts_list) for key, ts_list in self._timestamps.items()}

    def span(self, key: str) -> tuple[int, int]:
        ts = self._timestamps[key]
        return ts[0], ts[-1]

    def units_at(self, key: str, timestamp: int) -> int:
        """`price_at` as a count of 1/`util.SCALE` dollars, the unit of every
        USD value: two lookups give the price ratio as an int division."""
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
        from fractions import Fraction  # here alone: no stage calls price_at

        return Fraction(self.units_at(key, timestamp), SCALE)

    def value_usd(self, amount: int, currency: Currency, timestamp: int) -> int:
        """amount x carry-forward price, in fixed-point units, floored."""
        if amount < 0:
            raise ValueError("cannot value a negative amount")
        if amount == 0:
            return 0
        return amount * self.units_at(currency.price_key, timestamp) // SCALE

    @classmethod
    def from_csv(cls, path: str | Path) -> "PriceSeries":
        """Price file: columns price_key,timestamp,price_usd (a decimal).

        Rows may come in any order.  An unknown key or a non-positive price
        names its line; a repeated timestamp names the file.
        """
        try:
            return cls(PRICES.read(path))
        except ConfigError as exc:  # a repeated timestamp: each row was checked
            raise TableError(path, str(exc)) from None

    def to_csv(self, path: str | Path) -> None:
        PRICES.write(path, (
            (key, ts, format_fixed(units))
            for key in sorted(self._timestamps)
            for ts, units in zip(self._timestamps[key], self._units[key])
        ))


def _price_row(key: str, timestamp: str, price: str) -> tuple[str, int, int]:
    if not (timestamp.isdigit() and timestamp.isascii()):
        raise uint_cell_error(timestamp=timestamp)
    timestamp, units = int(timestamp), parse_fixed(price)
    # a ValueError, so the table reader names the line
    _check_point(key, timestamp, units, ValueError)
    return key, timestamp, units


PRICES = Table(("price_key", "timestamp", "price_usd"), from_row=_price_row)


def fetch_prices(fetch_config: dict) -> PriceSeries:
    """Pull candles from a configured HTTP endpoint into a PriceSeries.

    Config keys: url_template (a string whose only fields are {key},
    {start} and {end}), key_map (price key -> endpoint symbol), start and
    end (UTC seconds, integers >= 0, required when the template names
    them), optional timestamp_field / price_field (indexes into each
    candle row, integers >= 0, defaults 0 and 3), optional delay_seconds
    between requests (a number >= 0); a bad one raises ConfigError before
    any request.  A candle is read as a price-file row: its timestamp must be
    a JSON integer and `str` of its price a price cell.  The requests and
    their errors (PriceFetchError, naming the key and the URL) are
    described under prices.csv in docs/file_formats.md.
    """
    template = fetch_config.get("url_template")
    key_map = fetch_config.get("key_map")
    if not template or not isinstance(key_map, dict):
        raise ConfigError("price fetch config needs url_template and key_map")
    # loaded only when prices are fetched
    import http.client
    import string
    import urllib.error
    import urllib.request

    try:
        fields = {name for _, name, _, _ in string.Formatter().parse(template)
                  if name is not None}
    except (TypeError, ValueError):  # not a string, or unbalanced braces
        fields = None
    if fields is None or not fields <= {"key", "start", "end"}:
        raise ConfigError("price_fetch url_template must be a string naming only"
                          f" {{key}}, {{start}} and {{end}}, got {template!r}")
    ts_field = fetch_config.get("timestamp_field", 0)
    price_field = fetch_config.get("price_field", 3)
    delay = fetch_config.get("delay_seconds", 0)
    start = fetch_config.get("start")
    end = fetch_config.get("end")
    unknown = sorted(set(key_map) - GRANULARITY.keys())
    if unknown:
        raise ConfigError(f"unknown price key {unknown[0]!r}")
    integers = [("timestamp_field", ts_field), ("price_field", price_field)]
    integers += [(name, value) for name, value in (("start", start), ("end", end))
                 if name in fields]
    for name, value in integers:
        if type(value) is not int or value < 0:
            raise ConfigError(f"price_fetch {name} must be an integer >= 0, got {value!r}")
    if type(delay) not in (int, float) or not 0 <= delay < math.inf:
        raise ConfigError(f"price_fetch delay_seconds must be a number >= 0, got {delay!r}")
    try:  # a format spec can still fail, as in {key:d}
        urls = [(key, template.format(key=key_map[key], start=start, end=end))
                for key in sorted(key_map)]
    except (LookupError, ValueError) as exc:
        raise ConfigError(f"price_fetch url_template {template!r} cannot be filled: {exc}") from exc

    points: list[tuple[str, int, int]] = []
    for key, url in urls:
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
            for candle in candles:
                timestamp = candle[ts_field]
                if type(timestamp) is not int:
                    raise ValueError(f"timestamp {timestamp!r} is not an integer")
                points.append(_price_row(key, str(timestamp), str(candle[price_field])))
        except (LookupError, TypeError, ValueError) as exc:
            raise PriceFetchError(f"{key} candles from {url}: bad candle: {exc}") from exc
        if delay:
            time.sleep(delay)
    return PriceSeries(points)


def write_prices_csv(path: str | Path, series: PriceSeries) -> None:
    series.to_csv(path)


def make_valuer(series: PriceSeries, currencies: dict[str, Currency]):
    """Close over a price series: (symbol, amount, ts) -> USD, fixed point."""

    def value(symbol: str, amount: int, timestamp: int) -> int:
        return series.value_usd(amount, currencies[symbol], timestamp)

    return value
