"""Independent reference for the ``deep`` workload's reports.

run.py checks every ``deep`` iteration against this, for any seed.  The
reference is computed from what the generator placed in the log file
(each script's rules and field values, and each log's block, index and
timestamp) and from the price file it wrote; it uses no dfcflow code.
Every ``deep`` script is one user and so one address group: its EOA and,
for a third of the users, the Maker proxy joined to it by a vault open.
Every group borrows on one protocol and deposits on another, so every
group is eligible.  No script emits an approval, an on-behalf repay or a
swap to another address, so the cluster comparison counts are all zero.

The rules restated here are the ones the reports document: first-out
debt taint with exact fractions, swaps carrying the debt share of the
amount sent, carry-forward prices no staler than twice the series'
granularity, and Pearson R of each period's collateral change or ETH
price change against the next period's debt share.  Reported figures are
compared as numbers, within half a unit of their last printed digit, so
the check does not depend on how the program rounds for display.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from scipy.special import betainc

HOUR = 3600
DAY = 86400
# staleness bound per price key: twice the series' sampling granularity
MAX_AGE = {"BTC": 2 * HOUR, "ETH": 2 * HOUR, "USDC": 2 * HOUR, "DAI": 2 * HOUR, "USDT": 2 * DAY}
PROTOCOLS = ("Aave", "Compound", "Maker", "Uniswap")
SUMMARY_STATS = {
    "collateral_deposit": "collateral_deposited_usd",
    "collateral_withdraw": "collateral_withdrawn_usd",
    "debt_create": "debt_created_usd",
    "debt_repay": "debt_repaid_usd",
    "swap": "currency_swapped_usd",
}
STARS = ((0.01, "***"), (0.05, "**"), (0.1, "*"))


class Mismatch(Exception):
    """A report differs from the reference."""


@dataclass(frozen=True)
class Event:
    order: tuple[int, int]
    timestamp: int
    group: int
    protocol: str
    kind: str
    actor: str
    currency: str  # the sent currency for a swap
    amount: Fraction  # the sent amount for a swap
    received: str | None = None
    amount_received: Fraction | None = None


class Prices:
    def __init__(self, path: Path):
        self.points: dict[str, tuple[list[int], list[Fraction]]] = {}
        with open(path, encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                ts, prices = self.points.setdefault(row["price_key"], ([], []))
                ts.append(int(row["timestamp"]))
                prices.append(Fraction(row["price_usd"]))

    def at(self, key: str, timestamp: int) -> Fraction | None:
        ts, prices = self.points[key]
        i = bisect_right(ts, timestamp) - 1
        if i < 0 or timestamp - ts[i] > MAX_AGE[key]:
            return None
        return prices[i]


def _month(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m")


def _months(first: str, last: str) -> list[str]:
    y, m = map(int, first.split("-"))
    out = []
    while f"{y:04d}-{m:02d}" <= last:
        out.append(f"{y:04d}-{m:02d}")
        y, m = (y + 1, 1) if m == 12 else (y, m + 1)
    return out


def events_of(placed, registry) -> list[Event]:
    events = []
    for group, rule, fields, log in placed:
        if rule.kind == "vault_open":
            continue
        common = dict(order=(log.block_number, log.log_index), timestamp=log.timestamp,
                      group=group, protocol=rule.protocol, kind=rule.kind,
                      actor=fields["actor"])
        if rule.kind == "swap":
            pair = (registry.tokens[rule.token0], registry.tokens[rule.token1])
            sent, received = pair if fields["direction"] == "0to1" else pair[::-1]
            events.append(Event(**common, currency=sent, amount=fields["amount_sent"],
                                received=received,
                                amount_received=fields["amount_received"]))
        else:
            events.append(Event(**common, currency=fields["currency"],
                                amount=fields["amount"]))
    return sorted(events, key=lambda e: e.order)


class Reference:
    """Expected report values for one generated ``deep`` workload."""

    def __init__(self, placed, registry, prices_csv: Path):
        self.price_key = {sym: c.price_key for sym, c in registry.currencies.items()}
        self.prices = Prices(prices_csv)
        self.events = events_of(placed, registry)
        self.flows = self._taint()
        self.tables = [
            ("monthly_dfc.csv", self.monthly(), (None, 0, 0, 0, 1)),
            ("protocol_breakdown.csv", self.breakdown(), (None, None, 1)),
            ("summary.csv", self.summary(), (None, *(2,) * len(PROTOCOLS))),
            ("cluster_comparison.csv",
             [["self_approval_pairs", 0], ["heuristic_pairs", 0], ["overlap_pairs", 0]],
             (None, 0)),
        ]
        self.expected_correlations = self.correlations()

    def usd(self, currency: str, amount: Fraction, ts: int) -> Fraction:
        price = self.prices.at(self.price_key[currency], ts)
        if price is None:
            raise Mismatch(f"no {currency} price at {ts}: the workload is invalid")
        return amount * price

    def _taint(self) -> list[tuple[int, str, str, Fraction, Fraction]]:
        """(timestamp, protocol, kind, debt USD, non-debt USD) per deposit
        and withdrawal."""
        wallet: dict = defaultdict(Fraction)
        platform: dict = defaultdict(Fraction)
        flows = []
        for e in self.events:
            w = (e.group, e.currency)
            if e.kind == "debt_create":
                wallet[w] += e.amount
            elif e.kind == "debt_repay":
                wallet[w] -= min(e.amount, wallet[w])
            elif e.kind == "swap":
                if e.amount:
                    share = min(Fraction(1), wallet[w] / e.amount)
                    wallet[w] -= e.amount * share
                    wallet[(e.group, e.received)] += e.amount_received * share
            else:
                p = (e.group, e.protocol, e.currency)
                if e.kind == "collateral_deposit":
                    debt = min(e.amount, wallet[w])
                    wallet[w] -= debt
                    platform[p] += debt
                else:
                    debt = min(e.amount, platform[p])
                    platform[p] -= debt
                    wallet[w] += debt
                flows.append((e.timestamp, e.protocol, e.kind,
                              self.usd(e.currency, debt, e.timestamp),
                              self.usd(e.currency, e.amount - debt, e.timestamp)))
        return flows

    # --- expected tables ------------------------------------------------------

    def span(self) -> list[str]:
        months = [_month(ts) for ts, *_ in self.flows]
        return _months(min(months), max(months))

    def monthly(self) -> list[list]:
        debt: dict = defaultdict(Fraction)
        total: dict = defaultdict(Fraction)
        for ts, _, kind, d, n in self.flows:
            if kind == "collateral_deposit":
                debt[_month(ts)] += d
                total[_month(ts)] += d + n
        mn = Fraction(1_000_000)
        return [[m, debt[m] / mn, (total[m] - debt[m]) / mn, total[m] / mn,
                 100 * debt[m] / total[m] if total[m] else None] for m in self.span()]

    def breakdown(self) -> list[list]:
        debt: dict = defaultdict(Fraction)
        total: dict = defaultdict(Fraction)
        for ts, protocol, kind, d, n in self.flows:
            if kind == "collateral_deposit":
                debt[(_month(ts), protocol)] += d
                total[(_month(ts), protocol)] += d + n
        protocols = sorted({protocol for _, protocol, *_ in self.flows})
        return [[m, p, 100 * debt[(m, p)] / total[(m, p)] if total[(m, p)] else None]
                for m in self.span() for p in protocols]

    def summary(self) -> list[list]:
        actors: dict = defaultdict(set)
        counts: dict = defaultdict(int)
        usd: dict = defaultdict(Fraction)
        for e in self.events:
            actors[e.protocol].add(e.actor)
            counts[e.protocol] += 1
            usd[(SUMMARY_STATS[e.kind], e.protocol)] += self.usd(e.currency, e.amount, e.timestamp)
        rows = [["unique_addresses", *(len(actors[p]) for p in PROTOCOLS)],
                ["transactions", *(counts[p] for p in PROTOCOLS)]]
        rows += [[stat, *(usd[(stat, p)] for p in PROTOCOLS)] for stat in SUMMARY_STATS.values()]
        return rows

    def correlations(self) -> list[list]:
        rows = []
        for var1 in ("collateral_change", "price_change"):
            for period, lag in ((HOUR, "next_hour"), (DAY, "next_day")):
                dep: dict = defaultdict(Fraction)
                dep_debt: dict = defaultdict(Fraction)
                wd: dict = defaultdict(Fraction)
                for ts, _, kind, d, n in self.flows:
                    if kind == "collateral_deposit":
                        dep[ts // period] += d + n
                        dep_debt[ts // period] += d
                    else:
                        wd[ts // period] += d + n
                buckets = sorted(set(dep) | set(wd))
                xs, ys = [], []
                for b in range(buckets[0], buckets[-1]):
                    if not dep.get(b + 1):
                        continue
                    if var1 == "collateral_change":
                        x = float(dep.get(b, Fraction(0)) - wd.get(b, Fraction(0)))
                    else:
                        open_ = self.prices.at("ETH", b * period)
                        close = self.prices.at("ETH", (b + 1) * period)
                        if open_ is None or close is None:
                            continue
                        x = float(close / open_) - 1.0
                    xs.append(x)
                    ys.append(float(dep_debt[b + 1] / dep[b + 1]))
                rows.append([var1, lag, *_pearson(xs, ys), len(xs)])
        return rows

    # --- comparison -----------------------------------------------------------

    def check(self, out: Path) -> None:
        """Raise Mismatch unless the five reports in `out` agree."""
        for name, want, places in self.tables:
            _compare(out / name, want, places)
        got = _read(out / "correlations.csv")
        want = self.expected_correlations
        if len(got) != len(want):
            raise Mismatch(f"correlations.csv: {len(got)} rows, expected {len(want)}")
        for g, (var1, lag, r, p, n) in zip(got, want):
            try:
                ok = (g[:2] == [var1, lag] and int(g[5]) == n
                      and abs(float(g[2]) - r) <= 1e-6
                      and math.isclose(float(g[3]), p, rel_tol=1e-5, abs_tol=1e-300)
                      and g[4] == _stars(float(g[3])))
            except (ValueError, IndexError):
                ok = False
            if not ok:
                raise Mismatch(f"correlations.csv: {g}, expected R {r:.6f} p {p:.6g} n {n}")


def _pearson(xs: list[float], ys: list[float]) -> tuple[float, float]:
    n = len(xs)
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(
        math.fsum(a * a for a in dx) * math.fsum(b * b for b in dy))
    dof = n - 2
    t_sq = r * r * dof / (1 - r * r)
    return r, float(betainc(dof / 2, 0.5, dof / (dof + t_sq)))


def _stars(p: float) -> str:
    return next((marker for threshold, marker in STARS if p < threshold), "")


def _read(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _compare(path: Path, want: list[list], places: tuple) -> None:
    """Cells with `places` None compare as text; others as numbers within
    half a unit of the last printed digit.  None is an empty cell."""
    got = _read(path)
    if len(got) != len(want):
        raise Mismatch(f"{path.name}: {len(got)} rows, expected {len(want)}")
    for g, w in zip(got, want):
        for cell, value, digits in zip(g, w, places, strict=True):
            if digits is None:
                ok = cell == value
            elif value is None:
                ok = cell == ""
            else:
                try:
                    ok = abs(Fraction(cell) - value) <= Fraction(1, 2 * 10**digits)
                except ValueError:
                    ok = False
            if not ok:
                shown = [float(v) if isinstance(v, Fraction) else v for v in w]
                raise Mismatch(f"{path.name}: row {g} differs from the reference {shown}")
