import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dfcflow.errors import InsufficientDataError, UndefinedCorrelationError
from dfcflow.ledger import FlowRecord
from dfcflow.market import HOUR, PriceSeries
from dfcflow.report import (
    CorrelationResult,
    MonthlyDfcRow,
    lagged_correlations,
    monthly_dfc_rows,
    _decimal,
    pearson,
    protocol_breakdown,
    write_breakdown_csv,
    write_monthly_csv,
)
from dfcflow.util import SCALE, parse_fixed

from tests.conftest import units
from tests.oracles import pearson_reference

F = Fraction
MAY_4_2020 = 1_588_550_400  # 2020-05-04 00:00 UTC
M = 1_000_000


def flow(ts, debt_usd, nondebt_usd, protocol="Compound", currency="DAI",
         kind="collateral_deposit"):
    debt, nondebt = units(debt_usd), units(nondebt_usd)
    return FlowRecord(
        group="0x" + "01" * 20, timestamp=ts, block_number=10_000_000,
        protocol=protocol, currency=currency, kind=kind,
        debt_token=debt, nondebt_token=nondebt, debt_usd=debt, nondebt_usd=nondebt,
    )


def month_ts(year, month):
    from datetime import datetime, timezone

    return int(datetime(year, month, 15, tzinfo=timezone.utc).timestamp())


# --- monthly table -------------------------------------------------------------

def test_monthly_row_basic_percentage():
    rows = monthly_dfc_rows([flow(month_ts(2020, 5), 3 * M, 243 * M)])
    (row,) = rows
    assert row.month == "2020-05"
    assert row.total_usd == 246 * M * SCALE
    assert (row.debt_usd, row.nondebt_usd) == (3 * M * SCALE, 243 * M * SCALE)  # 1.2%


def test_monthly_csv_prints_like_the_summary_table(tmp_path):
    # displayed total is rounded from the exact sums, so the printed
    # debt + nondebt can differ from the printed total by one
    records = [
        flow(month_ts(2020, 5), 3 * M, 243 * M),
        flow(month_ts(2021, 1), F("3786400000"), F("15527400000")),
    ]
    rows = monthly_dfc_rows(records)
    path = tmp_path / "monthly.csv"
    write_monthly_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "month,debt_usd_millions,nondebt_usd_millions,total_usd_millions,debt_pct"
    assert lines[1] == "2020-05,3,243,246,1.2"
    assert lines[-1] == "2021-01,3786,15527,19314,19.6"
    assert 3786 + 15527 == 19313  # the off-by-one is the rounding artifact


def test_zero_deposit_month_emits_zeros_and_null_pct(tmp_path):
    records = [
        flow(month_ts(2020, 5), 10 * M, 10 * M),
        flow(month_ts(2020, 7), 5 * M, 15 * M),
    ]
    rows = monthly_dfc_rows(records)
    assert [r.month for r in rows] == ["2020-05", "2020-06", "2020-07"]
    assert rows[1].total_usd == 0
    path = tmp_path / "monthly.csv"
    write_monthly_csv(path, rows)
    assert path.read_text().splitlines()[2] == "2020-06,0,0,0,"


def test_monthly_requires_flow_records():
    with pytest.raises(InsufficientDataError):
        monthly_dfc_rows([])


def test_row_sums_equal_ledger_total_exactly():
    records = [
        flow(month_ts(2020, 5), F(100, 3), F(7)),
        flow(month_ts(2020, 6), F(55, 7), F(11)),
        flow(month_ts(2020, 6), F(1, 9), F(2), kind="collateral_withdraw"),
    ]
    rows = monthly_dfc_rows(records)
    deposits_debt = units(F(100, 3)) + units(F(55, 7))
    assert sum(r.debt_usd for r in rows) == deposits_debt


# --- protocol breakdown ---------------------------------------------------------

def test_breakdown_single_protocol_equals_aggregate():
    records = [flow(month_ts(2020, 5), 30, 70)]
    cells = protocol_breakdown(records)
    assert cells == [("2020-05", "Compound", 30 * SCALE, 100 * SCALE)]


def test_breakdown_null_cell_for_protocol_without_deposits(tmp_path):
    records = [
        flow(month_ts(2020, 5), 30, 70, protocol="Compound"),
        flow(month_ts(2020, 5), 10, 10, protocol="Aave", kind="collateral_withdraw"),
    ]
    cells = protocol_breakdown(records)
    assert cells == [("2020-05", "Aave", 0, 0), ("2020-05", "Compound", 30 * SCALE, 100 * SCALE)]
    path = tmp_path / "breakdown.csv"
    write_breakdown_csv(path, cells)
    assert path.read_text().splitlines()[1:] == ["2020-05,Aave,", "2020-05,Compound,30.0"]


def test_breakdown_is_per_protocol():
    records = [
        flow(month_ts(2020, 5), 20, 80, protocol="Aave"),
        flow(month_ts(2020, 5), 60, 40, protocol="Compound"),
    ]
    cells = {(m, p): (debt, total) for m, p, debt, total in protocol_breakdown(records)}
    assert cells[("2020-05", "Aave")] == (20 * SCALE, 100 * SCALE)
    assert cells[("2020-05", "Compound")] == (60 * SCALE, 100 * SCALE)


def test_deposits_either_side_of_a_month_boundary_keep_their_months():
    aug_1 = 1_596_240_000  # 2020-08-01 00:00 UTC
    records = [flow(aug_1 - 1, 1, 2), flow(aug_1, 3, 4), flow(aug_1 + 1, 5, 6)]
    assert monthly_dfc_rows(records) == [
        MonthlyDfcRow("2020-07", 1 * SCALE, 2 * SCALE),
        MonthlyDfcRow("2020-08", 8 * SCALE, 10 * SCALE),
    ]
    assert protocol_breakdown(records) == [
        ("2020-07", "Compound", 1 * SCALE, 3 * SCALE),
        ("2020-08", "Compound", 8 * SCALE, 18 * SCALE),
    ]


def _decimal_reference(num, den, places):
    """`Fraction` rounding, half to even, with the sign of `num`."""
    digits = f"{round(F(abs(num), den) * 10**places):0{places + 1}d}"
    text = f"{digits[:-places]}.{digits[-places:]}" if places else digits
    return "-" + text if num < 0 else text


@given(st.integers(-10**40, 10**40), st.integers(1, 10**40), st.integers(0, 3))
def test_decimal_rounds_like_fraction(num, den, places):
    assert _decimal(num, den, places) == _decimal_reference(num, den, places)


def test_decimal_ties_go_to_even_and_keep_the_sign():
    for num in range(-400, 401):
        for den in (1, 2, 4, 8, 20, 40, 200, 2 * SCALE):
            for places in (0, 1, 2):
                assert _decimal(num, den, places) == _decimal_reference(num, den, places)
    assert [_decimal(n, 2, 0) for n in (1, 3, 5, -1, -3)] == ["0", "2", "2", "-0", "-2"]
    assert _decimal(-1, 100, 1) == "-0.0"
    assert _decimal(5, 0, 1) == ""


# --- pearson --------------------------------------------------------------------

def test_identical_series_give_exactly_one():
    xs = [1.5, 2.25, -3.0, 4.125, 9.75]
    r, p = pearson(xs, list(xs))
    assert r == 1.0
    assert p == 0.0


def test_negated_series_give_exactly_minus_one():
    xs = [1.5, 2.25, -3.0, 4.125, 9.75]
    r, p = pearson(xs, [-v for v in xs])
    assert r == -1.0
    assert p == 0.0


def test_pearson_is_symmetric():
    xs = [1.0, 2.0, 4.0, 8.0, 9.0]
    ys = [2.0, 1.0, 5.0, 7.0, 11.0]
    assert pearson(xs, ys) == pearson(ys, xs)


def test_fixed_ten_point_series_matches_from_definition_oracle():
    # frozen from the 50-digit from-definition computation
    xs = [1.2, 3.4, 2.2, 5.9, 4.4, 6.1, 0.7, 8.3, 7.5, 5.0]
    ys = [0.9, 2.1, 3.0, 4.8, 4.1, 7.2, 1.1, 7.9, 6.0, 5.5]
    r, p = pearson(xs, ys)
    assert abs(r - 0.9372598352338795) < 1e-12
    assert abs(p - 6.281772208213792e-05) < 1e-12


def test_zero_variance_is_an_error():
    with pytest.raises(UndefinedCorrelationError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_too_few_samples_is_an_error():
    with pytest.raises(InsufficientDataError):
        pearson([1.0, 2.0], [2.0, 1.0])


def test_length_mismatch_is_an_error():
    with pytest.raises(ValueError):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=99_999),
    scale=st.floats(min_value=0.001, max_value=1000.0),
    shift=st.floats(min_value=-100.0, max_value=100.0),
)
def test_positive_affine_invariance(seed, scale, shift):
    rng = random.Random(seed)
    xs = [rng.uniform(-10, 10) for _ in range(20)]
    ys = [rng.uniform(-10, 10) for _ in range(20)]
    r0, _ = pearson(xs, ys)
    r1, _ = pearson([scale * v + shift for v in xs], ys)
    assert abs(r0 - r1) < 1e-12


def test_random_series_match_reference_within_1e12():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(10, 200)
        xs = [rng.gauss(0, 3) for _ in range(n)]
        ys = [0.4 * x + rng.gauss(0, 2) for x in xs]
        r, p = pearson(xs, ys)
        r_ref, p_ref = pearson_reference(xs, ys)
        assert abs(r - r_ref) < 1e-12
        assert abs(p - p_ref) < 1e-12


def test_t_tail_matches_reference_from_3_to_5000_points():
    # slopes shrink with sqrt(n) so p stays away from 0 and 1 at every size,
    # and both sides of the continued fraction's switch point are reached
    rng = random.Random(23)
    for n in (3, 4, 5, 7, 12, 41, 42, 100, 333, 1000, 2500, 5000):
        for _ in range(4):
            xs = [rng.gauss(0, 1) for _ in range(n)]
            beta = rng.uniform(-4, 4) / math.sqrt(n)
            ys = [beta * x + rng.gauss(0, 1) for x in xs]
            _, p = pearson(xs, ys)
            _, p_ref = pearson_reference(xs, ys)
            assert abs(p - p_ref) < 1e-13, (n, p, p_ref)


def test_subnormal_t_tail_is_returned_as_zero():
    rng = random.Random(0)
    xs = [rng.gauss(0, 1) for _ in range(1000)]
    ys = [x + rng.gauss(0, 0.55) for x in xs]
    _, p_ref = pearson_reference(xs, ys)
    assert 0 < p_ref < sys.float_info.min
    assert pearson(xs, ys)[1] == 0.0


def test_star_annotation_thresholds():
    def stars_for(p):
        return CorrelationResult("price_change", "next_day", 0.1, p, 10).stars

    assert stars_for(0.0099) == "***"
    assert stars_for(0.01) == "**"
    assert stars_for(0.0499) == "**"
    assert stars_for(0.05) == "*"
    assert stars_for(0.0999) == "*"
    assert stars_for(0.1) == ""
    assert stars_for(0.9) == ""
    assert CorrelationResult("price_change", "next_day", None, None, 10).stars == ""


# --- lagged correlations --------------------------------------------------------

def aligned(ts):
    return ts - ts % HOUR


BASE = aligned(MAY_4_2020) + 10 * HOUR


def daily_usdt_points(days):
    """Daily points so next_day rows have usable prices."""
    day0 = BASE - BASE % 86_400
    return [("USDT", day0 + i * 86_400, SCALE) for i in range(-2, days)]


def constant_price_series(hours=200, price="210.5"):
    units = parse_fixed(price)
    return PriceSeries([("ETH", BASE + i * HOUR, units) for i in range(-4, hours)]
                       + daily_usdt_points(hours // 24 + 3))


def test_constant_price_rows_report_undefined_correlation():
    rng = random.Random(3)
    records = []
    for i in range(999):
        hour = BASE + (i % 160) * HOUR
        records.append(flow(hour + rng.randint(0, 3599),
                            rng.randint(0, 50), rng.randint(1, 50)))
    results = lagged_correlations(records, constant_price_series())
    by_key = {(r.var1, r.lag): r for r in results}
    assert by_key[("price_change", "next_hour")].r is None
    assert by_key[("price_change", "next_day")].r is None
    assert by_key[("collateral_change", "next_hour")].r is not None


def test_perfectly_predictive_collateral_change_gives_r_one():
    # within each day's run of deposits, the next hour's debt share equals
    # this hour's net flow / 1000; runs start with share 0 so the pair
    # entering each run (zero prior flow) also lies on the line
    records = []
    for day in range(5):
        totals = [100 + 10 * day, 220, 340 + 20 * day, 160, 280, 400, 520, 240]
        for i, total in enumerate(totals):
            debt_share = F(totals[i - 1], 1000) if i > 0 else F(0)
            debt = F(total) * debt_share
            records.append(flow(BASE + (day * 24 + i) * HOUR, debt, F(total) - debt))
    results = lagged_correlations(records, constant_price_series())
    row = next(r for r in results if (r.var1, r.lag) == ("collateral_change", "next_hour"))
    assert row.r is not None
    assert abs(row.r - 1.0) < 1e-9


def test_perfectly_predictive_price_change_gives_r_one():
    # hourly price path over 5 days; deposits follow share = 1/2 + change
    day_deltas = [
        [0.01, -0.02, 0.03, 0.005, -0.015, 0.025, -0.01],
        [0.02, -0.01, 0.015, -0.005, 0.01, -0.02, 0.005],
        [0.005, 0.02, -0.025, 0.01, -0.01, 0.03, -0.015],
        [-0.01, 0.015, 0.02, -0.02, 0.005, -0.005, 0.01],
        [0.03, -0.03, 0.01, 0.02, -0.01, 0.015, -0.02],
    ]
    points = daily_usdt_points(8)
    price = F(200)
    records = []
    run_hours = {}
    for day, deltas in enumerate(day_deltas):
        for i in range(len(deltas) + 1):
            run_hours[day * 24 + i] = deltas[i - 1] if i > 0 else None

    total_hours = 5 * 24
    changes = {}
    for h in range(-4, total_hours + 4):
        points.append(("ETH", BASE + h * HOUR, int(price * SCALE)))
        delta = run_hours.get(h + 1)
        step = F(str(delta)) if delta is not None else F(0)
        changes[h] = step
        # a price is a decimal of at most 36 places, so the compounded path is rounded
        price = round(price * (1 + step), 12)

    for day, deltas in enumerate(day_deltas):
        for i in range(len(deltas) + 1):
            share = F(1, 2) + (F(str(deltas[i - 1])) if i > 0 else F(0))
            records.append(flow(BASE + (day * 24 + i) * HOUR,
                                100 * share, 100 * (1 - share)))
    results = lagged_correlations(records, PriceSeries(points))
    row = next(r for r in results if (r.var1, r.lag) == ("price_change", "next_hour"))
    assert row.r is not None
    assert abs(row.r - 1.0) < 1e-6


def test_insufficient_paired_periods_raises():
    records = [flow(BASE, 10, 10), flow(BASE + HOUR, 10, 10)]
    with pytest.raises(InsufficientDataError):
        lagged_correlations(records, constant_price_series())
