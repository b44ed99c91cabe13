"""Aggregate flow logs into report tables and correlation statistics.

The monthly table, protocol breakdown and summary sum the ledger's
fixed-point USD values (`int` counts of 1/`util.SCALE` dollars) as plain
ints, and round them for display in ints too: USD in whole millions or
cents, percentages to one decimal, ties to even, by `_decimal`, so
repeated runs emit byte-identical files.  The correlation layer is
statistical and works in floats, each one an int true division, which
rounds correctly: it builds per-hour and per-day series of collateral
change, price change and debt percentage, then correlates each variable
with the debt percentage of the following period.

"Collateral change" is realized as net USD collateral flow (deposits
minus withdrawals) per period; the source material leaves the term
undefined, so this interpretation is deliberate and documented.  Price
change uses ETH (close over open per period, carry-forward lookups).
Periods with zero deposits have an undefined debt percentage and are
dropped pairwise rather than imputed.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from datetime import datetime, timezone
from typing import NamedTuple, Sequence

from .decode import CanonicalEvent
from .errors import InsufficientDataError, UndefinedCorrelationError, ValuationError
from .ledger import FlowRecord
from .market import PriceSeries
from .registry import (
    COLLATERAL_DEPOSIT, COLLATERAL_WITHDRAW, DAY, DEBT_CREATE, DEBT_REPAY, HOUR, PROTOCOLS, SWAP,
    Currency,
)
from .tables import Table
from .util import SCALE

MIN_CORRELATION_SAMPLES = 3

STAR_THRESHOLDS = ((0.01, "***"), (0.05, "**"), (0.1, "*"))


class MonthlyDfcRow(NamedTuple):
    month: str
    debt_usd: int
    nondebt_usd: int

    @property
    def total_usd(self) -> int:
        return self.debt_usd + self.nondebt_usd


class CorrelationResult(NamedTuple):
    var1: str  # collateral_change | price_change
    lag: str  # next_hour | next_day
    r: float | None
    p_value: float | None
    n: int

    @property
    def stars(self) -> str:
        if self.p_value is None:
            return ""
        for threshold, marker in STAR_THRESHOLDS:
            if self.p_value < threshold:
                return marker
        return ""


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


def _span_months(records: Sequence[FlowRecord]) -> list[str]:
    if not records:
        raise InsufficientDataError("no flow records to report on")
    # month_key is monotonic in the timestamp
    timestamps = [r.timestamp for r in records]
    return month_range(month_key(min(timestamps)), month_key(max(timestamps)))


def _deposit_sums(records: Sequence[FlowRecord], by_protocol: bool):
    """Debt and non-debt USD of the deposits per month, or per (month,
    protocol); a month is named once per UTC day."""
    months: dict[int, str] = {}
    debt: dict = defaultdict(int)
    nondebt: dict = defaultdict(int)
    for r in records:
        if r.kind == COLLATERAL_DEPOSIT:
            day = r.timestamp // DAY
            month = months.get(day)
            if month is None:
                month = months[day] = month_key(r.timestamp)
            key = (month, r.protocol) if by_protocol else month
            debt[key] += r.debt_usd
            nondebt[key] += r.nondebt_usd
    return debt, nondebt


def monthly_dfc_rows(records: Sequence[FlowRecord]) -> list[MonthlyDfcRow]:
    """One row per calendar month spanned by the flow log, deposits only."""
    debt, nondebt = _deposit_sums(records, by_protocol=False)
    return [
        MonthlyDfcRow(month, debt.get(month, 0), nondebt.get(month, 0))
        for month in _span_months(records)
    ]


def protocol_breakdown(records: Sequence[FlowRecord]) -> list[tuple[str, str, int, int]]:
    """(month, protocol, debt_usd, total_usd) cells of deposit sums; both
    are 0 where a protocol took no deposits that month."""
    protocols = sorted({r.protocol for r in records})
    debt, nondebt = _deposit_sums(records, by_protocol=True)
    return [
        (month, protocol, debt[month, protocol], debt[month, protocol] + nondebt[month, protocol])
        for month in _span_months(records)
        for protocol in protocols
    ]


def pearson(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Sample Pearson R and two-sided p-value via the t distribution.

    p is computed from t = R * sqrt((n-2) / (1-R^2)) against Student's t
    with n-2 degrees of freedom.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < MIN_CORRELATION_SAMPLES:
        raise InsufficientDataError(f"need at least {MIN_CORRELATION_SAMPLES} samples, got {n}")
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    dx = [v - mean_x for v in x]
    dy = [v - mean_y for v in y]
    ss_x = math.fsum(v * v for v in dx)
    ss_y = math.fsum(v * v for v in dy)
    if ss_x == 0 or ss_y == 0:
        raise UndefinedCorrelationError("zero variance input")
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(ss_x * ss_y)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    dof = n - 2
    t_sq = r * r * dof / (1 - r * r)
    return r, _t_two_sided_p(t_sq, dof)


def _t_two_sided_p(t_sq: float, dof: int) -> float:
    """P(|T| > t) for Student's t with `dof` degrees of freedom, from the
    regularized incomplete beta I_x(dof/2, 1/2) at x = dof / (dof + t^2).

    The continued fraction runs on whichever side of the mean converges
    fast (Numerical Recipes, 3rd ed., section 6.4).  A subnormal result
    has lost its relative precision, so it is returned as 0.0.
    """
    if t_sq == 0.0:
        return 1.0
    a, b = dof / 2, 0.5
    x = dof / (dof + t_sq)
    y = t_sq / (dof + t_sq)
    log_front = (
        -a * math.log1p(t_sq / dof) + b * math.log(y)
        - math.lgamma(b) + _log_gamma_ratio(a, b)
    )
    if x < (a + 1) / (a + b + 2):
        p = math.exp(log_front) * _beta_fraction(a, b, x) / a
    else:
        p = 1.0 - math.exp(log_front) * _beta_fraction(b, a, y) / b
    return p if p >= sys.float_info.min else 0.0


def _log_gamma_ratio(a: float, b: float) -> float:
    """ln Gamma(a + b) - ln Gamma(a).  For large `a` the two lgamma terms
    nearly cancel, so the difference comes from Stirling's series instead."""
    if a < 20:
        return math.lgamma(a + b) - math.lgamma(a)

    def tail(z: float) -> float:
        z2 = z * z
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * z2)) / z2) / z2) / z

    s = a + b
    return (a - 0.5) * math.log1p(b / a) + b * math.log(s) - b + tail(s) - tail(a)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta, by the modified Lentz
    method."""
    tiny = 1e-300

    def guard(v: float) -> float:
        return v if abs(v) >= tiny else tiny

    c = 1.0
    d = 1.0 / guard(1.0 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for num in (
            m * (b - m) * x / ((a + m2 - 1) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1)),
        ):
            d = 1.0 / guard(1.0 + num * d)
            c = guard(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < sys.float_info.epsilon:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def _period_series(records: Sequence[FlowRecord], period: int):
    dep_total: dict[int, int] = defaultdict(int)
    dep_debt: dict[int, int] = defaultdict(int)
    wd_total: dict[int, int] = defaultdict(int)
    for r in records:
        bucket = r.timestamp // period
        if r.kind == COLLATERAL_DEPOSIT:
            dep_total[bucket] += r.debt_usd + r.nondebt_usd
            dep_debt[bucket] += r.debt_usd
        elif r.kind == COLLATERAL_WITHDRAW:
            wd_total[bucket] += r.debt_usd + r.nondebt_usd
    return dep_total, dep_debt, wd_total


def lagged_correlations(
    records: Sequence[FlowRecord],
    prices: PriceSeries,
) -> list[CorrelationResult]:
    """The four {collateral change, price change} x {next hour, next day}
    correlations against the following period's debt percentage."""
    if not records:
        raise InsufficientDataError("no flow records for correlation analysis")
    series = {period: _period_series(records, period) for period in (HOUR, DAY)}
    # the debt percentage of each period with deposits; others are dropped pairwise
    debt_pcts = {
        period: {b: dep_debt[b] / total for b, total in dep_total.items() if total != 0}
        for period, (dep_total, dep_debt, _) in series.items()
    }
    results = []
    for var1 in ("collateral_change", "price_change"):
        for period, lag in ((HOUR, "next_hour"), (DAY, "next_day")):
            dep_total, _, wd_total = series[period]
            debt_pct = debt_pcts[period]
            buckets = sorted(set(dep_total) | set(wd_total))
            first, last = buckets[0], buckets[-1]
            xs: list[float] = []
            ys: list[float] = []
            for bucket in range(first, last):
                y = debt_pct.get(bucket + 1)
                if y is None:
                    continue
                if var1 == "collateral_change":
                    x = (dep_total.get(bucket, 0) - wd_total.get(bucket, 0)) / SCALE
                else:
                    try:
                        open_units = prices.units_at("ETH", bucket * period)
                        close_units = prices.units_at("ETH", (bucket + 1) * period)
                    except ValuationError:
                        continue
                    # both in 1/SCALE dollars; int division rounds correctly
                    x = close_units / open_units - 1.0
                xs.append(x)
                ys.append(y)
            if len(xs) < MIN_CORRELATION_SAMPLES:
                raise InsufficientDataError(
                    f"{var1}/{lag}: only {len(xs)} usable paired periods"
                )
            try:
                r, p = pearson(xs, ys)
                results.append(CorrelationResult(var1, lag, r, p, len(xs)))
            except UndefinedCorrelationError:
                results.append(CorrelationResult(var1, lag, None, None, len(xs)))
    return results


def summary_stats(
    events: Sequence[CanonicalEvent],
    prices: PriceSeries,
    currencies: dict[str, Currency],
) -> list[tuple[str, dict[str, int]]]:
    """Dataset summary rows: unique addresses, transaction counts and USD
    totals per protocol, over everything decoded (not only eligible
    groups).  Swaps are valued on the sent leg at event time."""
    actors: dict[str, set[str]] = defaultdict(set)
    counts: dict[str, int] = defaultdict(int)
    kind_to_stat = {
        COLLATERAL_DEPOSIT: "collateral_deposited_usd",
        COLLATERAL_WITHDRAW: "collateral_withdrawn_usd",
        DEBT_CREATE: "debt_created_usd",
        DEBT_REPAY: "debt_repaid_usd",
        SWAP: "currency_swapped_usd",
    }
    usd: dict[tuple[str, str], int] = defaultdict(int)
    for e in events:
        actors[e.protocol].add(e.actor)
        counts[e.protocol] += 1
        if e.kind == SWAP:
            value = prices.value_usd(e.amount_sent, currencies[e.currency_sent], e.timestamp)
        else:
            value = prices.value_usd(e.amount, currencies[e.currency], e.timestamp)
        usd[kind_to_stat[e.kind], e.protocol] += value

    rows: list[tuple[str, dict[str, int]]] = [
        ("unique_addresses", {p: len(actors[p]) for p in PROTOCOLS}),
        ("transactions", {p: counts[p] for p in PROTOCOLS}),
    ]
    for stat in kind_to_stat.values():
        rows.append((stat, {p: usd.get((stat, p), 0) for p in PROTOCOLS}))
    return rows


# --- CSV writers --------------------------------------------------------------

def _decimal(num: int, den: int, places: int) -> str:
    """`num / den` with exactly `places` decimals, rounded half to even and
    signed `-` for a negative `num` (so -0.01 at one place is `-0.0`);
    an empty cell where `den` is 0, a share of nothing."""
    if not den:
        return ""
    scaled, rest = divmod(abs(num) * 10**places, den)
    if 2 * rest > den or (2 * rest == den and scaled % 2):
        scaled += 1
    digits = str(scaled).rjust(places + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}" if places else sign + digits


def _summary_row(item: tuple[str, dict[str, int]]) -> tuple:
    stat, per_protocol = item
    values = (per_protocol[protocol] for protocol in PROTOCOLS)
    if stat.endswith("_usd"):
        return (stat, *(_decimal(value, SCALE, 2) for value in values))
    return (stat, *values)


write_monthly_csv = Table(
    ("month", "debt_usd_millions", "nondebt_usd_millions", "total_usd_millions", "debt_pct"),
    lambda row: (
        row.month,
        _decimal(row.debt_usd, SCALE * 1_000_000, 0),
        _decimal(row.nondebt_usd, SCALE * 1_000_000, 0),
        _decimal(row.total_usd, SCALE * 1_000_000, 0),
        _decimal(100 * row.debt_usd, row.total_usd, 1),
    ),
).write
write_breakdown_csv = Table(
    ("month", "protocol", "debt_pct"),
    lambda cell: (cell[0], cell[1], _decimal(100 * cell[2], cell[3], 1)),
).write
write_correlations_csv = Table(
    ("var1", "lag", "R", "p_value", "stars", "n"),
    lambda res: (
        res.var1,
        res.lag,
        f"{res.r:.6f}" if res.r is not None else "",
        f"{res.p_value:.6g}" if res.p_value is not None else "",
        res.stars,
        res.n,
    ),
).write
write_summary_csv = Table(("statistic",) + PROTOCOLS, _summary_row).write
