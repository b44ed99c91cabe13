"""USD price series of mixed granularity and event-time valuation.

Prices are carry-forward: a lookup returns the latest point at or before
the query time, provided the point is no staler than twice the series'
declared granularity (hourly for BTC/ETH/USDC/DAI, daily for USDT).
Carry-forward avoids lookahead bias; the staleness bound keeps gaps from
silently valuing events with week-old prices.

Series are immutable after load and safe for concurrent readers.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

from .errors import ConfigError, TableError, ValuationError
from .registry import Currency
from .tables import Table
from .util import format_exact, parse_amount

HOUR = 3600
DAY = 86400

# declared sampling granularity per price key, in seconds
GRANULARITY = {"BTC": HOUR, "ETH": HOUR, "USDC": HOUR, "DAI": HOUR, "USDT": DAY}

DEFAULT_STALENESS_MULTIPLIER = 2


@dataclass
class PriceSeries:
    """Sorted (timestamp, price) points per price key."""

    staleness_multiplier: int = DEFAULT_STALENESS_MULTIPLIER
    _timestamps: dict[str, list[int]] = field(default_factory=dict)
    _prices: dict[str, list[Fraction]] = field(default_factory=dict)

    def add_point(self, key: str, timestamp: int, price: Fraction) -> None:
        if key not in GRANULARITY:
            raise ConfigError(f"unknown price key {key!r}")
        if price.numerator <= 0:
            raise ConfigError(f"{key} price at {timestamp} is not positive")
        ts_list = self._timestamps.setdefault(key, [])
        if ts_list and timestamp <= ts_list[-1]:
            raise ConfigError(
                f"{key} timestamps must be strictly increasing (got {timestamp})"
            )
        ts_list.append(timestamp)
        self._prices.setdefault(key, []).append(price)

    @property
    def keys(self) -> frozenset[str]:
        return frozenset(self._timestamps)

    def span(self, key: str) -> tuple[int, int]:
        ts = self._timestamps[key]
        return ts[0], ts[-1]

    def price_at(self, key: str, timestamp: int) -> Fraction:
        """Latest price at or before `timestamp`, within the staleness bound."""
        ts_list = self._timestamps.get(key)
        if not ts_list:
            raise ValuationError(key, timestamp, "empty series")
        idx = bisect_right(ts_list, timestamp) - 1
        if idx < 0:
            raise ValuationError(key, timestamp, "before first price point")
        age = timestamp - ts_list[idx]
        bound = self.staleness_multiplier * GRANULARITY[key]
        if age > bound:
            raise ValuationError(
                key, timestamp, f"nearest point is {age}s old, bound {bound}s"
            )
        return self._prices[key][idx]

    def value_usd(self, amount: Fraction, currency: Currency, timestamp: int) -> Fraction:
        """amount x carry-forward price, exact."""
        if amount < 0:
            raise ValueError("cannot value a negative amount")
        if amount == 0:
            return Fraction(0)
        return amount * self.price_at(currency.price_key, timestamp)

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        staleness_multiplier: int = DEFAULT_STALENESS_MULTIPLIER,
    ) -> "PriceSeries":
        """Price file: columns price_key,timestamp,price_usd (exact decimal)."""
        rows = PRICES.read(path)
        rows.sort(key=itemgetter(0, 1))
        series = cls(staleness_multiplier=staleness_multiplier)
        try:
            for key, ts, price in rows:
                series.add_point(key, ts, price)
        except ConfigError as exc:
            raise TableError(path, str(exc)) from exc
        return series

    def to_csv(self, path: str | Path) -> None:
        PRICES.write(path, (
            (key, ts, format_exact(price))
            for key in sorted(self._timestamps)
            for ts, price in zip(self._timestamps[key], self._prices[key])
        ))


PRICES = Table(
    ("price_key", "timestamp", "price_usd"),
    from_row=lambda key, timestamp, price: (key, int(timestamp), parse_amount(price)),
)


def fetch_prices(fetch_config: dict, *, session=None) -> PriceSeries:
    """Pull candles from a configured HTTP endpoint into a PriceSeries.

    Config keys: url_template (with {key}, {start}, {end} placeholders),
    key_map (price key -> endpoint symbol), start, end (UTC seconds),
    optional timestamp_field / price_field (indexes into each candle row,
    defaults 0 and 3), optional delay_seconds between requests.

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
    if session is None:
        import requests  # loaded only when prices are fetched

        session = requests

    rows: list[tuple[str, int, Fraction]] = []
    for key in sorted(key_map):
        url = template.format(key=key_map[key], start=start, end=end)
        response = session.get(url, timeout=30)
        response.raise_for_status()
        candles = response.json()
        if not isinstance(candles, list):
            raise ConfigError(f"candle endpoint for {key} did not return a list")
        for candle in candles:
            rows.append((key, int(candle[ts_field]), Fraction(str(candle[price_field]))))
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
    """Close over a price series: (symbol, amount, ts) -> USD Fraction."""

    def value(symbol: str, amount: Fraction, timestamp: int) -> Fraction:
        return series.value_usd(amount, currencies[symbol], timestamp)

    return value
