import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dfcflow.cluster import address_protocol_map, group_addresses
from dfcflow.decode import CanonicalEvent, normalize_amount
from dfcflow.errors import LedgerError, SequencingError
from dfcflow.ledger import FlowRecord, GroupLedger, first_out_split, run_ledger
from dfcflow.util import SCALE as U

from tests.conftest import units
from tests.oracles import (
    attribute_first_out,
    attribute_last_out,
    attribute_proportional,
    heuristic_oracles,
    run_full_balance_scenario,
    shortfall_bounds,
    taint_interpreter,
)
from tests.test_acceptance import load_fixture_pipeline

F = Fraction
GROUP = "0x" + "01" * 20
T0 = 1_588_598_520


def flat_price(symbol, ts):
    return {"DAI": F(1), "USDC": F(1), "USDT": F(1), "WETH": F(200), "WBTC": F(9000)}[symbol]


def flat_valuer(symbol, amount, ts):
    return math.floor(amount * flat_price(symbol, ts))


def ev(kind, position, currency="DAI", amount=0, protocol="Aave", actor=GROUP,
       sent=None, received=None, amount_sent=None, amount_received=None,
       on_behalf_of=None, timestamp=None):
    if kind == "swap":
        return CanonicalEvent(
            kind=kind, protocol="Uniswap", actor=actor,
            block_number=10_000_000 + position, log_index=0,
            timestamp=timestamp if timestamp is not None else T0 + position * 3600,
            currency_sent=sent, currency_received=received,
            amount_sent=units(amount_sent), amount_received=units(amount_received),
        )
    return CanonicalEvent(
        kind=kind, protocol=protocol, actor=actor,
        block_number=10_000_000 + position, log_index=0,
        timestamp=timestamp if timestamp is not None else T0 + position * 3600,
        currency=currency, amount=units(amount), on_behalf_of=on_behalf_of,
    )


# --- first-out split ----------------------------------------------------------

def test_first_out_split_full_debt():
    assert first_out_split(50 * U, 100 * U) == (50 * U, 0)


def test_first_out_split_no_debt():
    assert first_out_split(50 * U, 0) == (0, 50 * U)


def test_first_out_split_partial_debt():
    assert first_out_split(50 * U, 30 * U) == (30 * U, 20 * U)


def test_first_out_split_rejects_negative():
    with pytest.raises(ValueError):
        first_out_split(-U, 0)


# --- single-ledger event application -------------------------------------------

def apply_all(events):
    ledger = GroupLedger(GROUP, flat_valuer)
    for e in events:
        ledger.apply(e)
    return ledger


def test_debt_create_raises_wallet_debt():
    ledger = apply_all([ev("debt_create", 0, amount=100)])
    assert ledger.wallet_debt["DAI"] == 100 * U


def test_debt_repay_clamps_at_zero():
    ledger = apply_all([
        ev("debt_create", 0, amount=50),
        ev("debt_repay", 1, amount=70),
    ])
    assert ledger.wallet_debt["DAI"] == 0


def test_three_state_scenario_matches_first_out_table():
    # 100 debt-financed alpha, swapped 1:1 into beta, then 50 beta deposited
    ledger = GroupLedger(GROUP, flat_valuer)
    ledger.apply(ev("debt_create", 0, currency="DAI", amount=100))
    ledger.apply(ev("swap", 1, sent="DAI", received="USDC",
                    amount_sent=100, amount_received=100))
    assert ledger.wallet_debt["DAI"] == 0
    assert ledger.wallet_debt["USDC"] == 100 * U  # S1: all taint moved to beta
    record = ledger.apply(ev("collateral_deposit", 2, currency="USDC", amount=50,
                             protocol="Compound"))
    assert ledger.wallet_debt["USDC"] == 50 * U
    assert ledger.platform_debt[("Compound", "USDC")] == 50 * U
    assert (record.debt_token, record.nondebt_token) == (50 * U, 0)
    assert record.debt_usd == 50 * U


def test_swap_taint_follows_received_amount():
    # walletDebt 40 of the sent currency, send 100, receive 200:
    # debtPct = 0.4, received taint = 80 (hand-applied formula)
    ledger = apply_all([
        ev("debt_create", 0, currency="DAI", amount=40),
        ev("swap", 1, sent="DAI", received="USDC", amount_sent=100, amount_received=200),
    ])
    assert ledger.wallet_debt["DAI"] == 0
    assert ledger.wallet_debt["USDC"] == 80 * U


def test_swap_with_zero_sent_amount_is_inert():
    ledger = apply_all([
        ev("debt_create", 0, currency="DAI", amount=40),
        ev("swap", 1, sent="DAI", received="USDC", amount_sent=0, amount_received=5),
    ])
    assert ledger.wallet_debt["DAI"] == 40 * U
    assert ledger.wallet_debt["USDC"] == 0


def test_withdraw_reverses_deposit_direction():
    ledger = apply_all([
        ev("debt_create", 0, amount=100),
        ev("collateral_deposit", 1, amount=60),
    ])
    withdraw = ledger.apply(ev("collateral_withdraw", 2, amount=80))
    # 60 tainted units went in; withdrawing 80 brings back at most 60
    assert ledger.platform_debt[("Aave", "DAI")] == 0
    assert ledger.wallet_debt["DAI"] == 100 * U
    assert (withdraw.debt_token, withdraw.nondebt_token) == (60 * U, 20 * U)


def test_deposit_split_conserves_amount_exactly():
    ledger = apply_all([ev("debt_create", 0, amount=F(100, 3))])
    record = ledger.apply(ev("collateral_deposit", 1, amount=F(50, 7)))
    assert record.debt_token + record.nondebt_token == units(F(50, 7))


def test_out_of_order_event_raises():
    ledger = GroupLedger(GROUP, flat_valuer)
    ledger.apply(ev("debt_create", 5, amount=1))
    with pytest.raises(SequencingError):
        ledger.apply(ev("debt_create", 4, amount=1))


@pytest.mark.parametrize("events, message", [
    ([ev("debt_create", 0, amount=-5)],
     "wallet debt for DAI went negative at (10000000, 0)"),
    ([ev("collateral_deposit", 0, amount=10), ev("collateral_withdraw", 1, amount=-5)],
     "wallet debt for DAI went negative at (10000001, 0)"),
    ([ev("debt_create", 0, currency="USDC", amount=1),
      ev("debt_create", 1, amount=40),
      ev("swap", 2, sent="DAI", received="USDC", amount_sent=100, amount_received=-200)],
     "wallet debt for USDC went negative at (10000002, 0)"),
], ids=["debt-create", "collateral-withdraw", "swap-received"])
def test_negative_balance_raises_after_the_event(events, message):
    ledger = GroupLedger(GROUP, flat_valuer)
    for e in events[:-1]:
        ledger.apply(e)
    with pytest.raises(LedgerError) as err:
        ledger.apply(events[-1])
    assert str(err.value) == message


# --- heuristic oracles ---------------------------------------------------------

def test_table_scenario_under_all_three_heuristics():
    initial = {"alpha": (F(100), F(0)), "beta": (F(0), F(100))}
    txns = [
        ("swap", "alpha", F(100), "beta", F(100)),
        ("deposit", "Compound", "beta", F(50)),
    ]
    results = heuristic_oracles(initial, txns)
    # deposit attribution: proportional 25, first-out 50, last-out 0
    assert results["proportional"][1] == 25
    assert results["first_out"][1] == 50
    assert results["last_out"][1] == 0

    # final states per heuristic
    _, prop = run_full_balance_scenario(initial, txns, "proportional")
    assert prop.wallet["beta"] == [F(75), F(75)]
    assert prop.platform[("Compound", "beta")] == [F(25), F(25)]
    _, first = run_full_balance_scenario(initial, txns, "first_out")
    assert first.wallet["beta"] == [F(50), F(100)]
    assert first.platform[("Compound", "beta")] == [F(50), F(0)]
    _, last = run_full_balance_scenario(initial, txns, "last_out")
    assert last.wallet["beta"] == [F(100), F(50)]
    assert last.platform[("Compound", "beta")] == [F(0), F(50)]


def test_zero_debt_wallet_attributes_nothing():
    initial = {"beta": (F(0), F(100))}
    results = heuristic_oracles(initial, [("deposit", "Aave", "beta", F(40))])
    assert all(res == [0] for res in results.values())


def test_single_step_heuristic_dominance():
    rng = random.Random(2024)
    for _ in range(1_000):
        debt = F(rng.randint(0, 10_000), rng.randint(1, 100))
        nondebt = F(rng.randint(0, 10_000), rng.randint(1, 100))
        total = debt + nondebt
        amount = total * F(rng.randint(0, 1000), 1000)
        first = attribute_first_out(amount, debt, nondebt)
        prop = attribute_proportional(amount, debt, nondebt)
        last = attribute_last_out(amount, debt, nondebt)
        assert first >= prop >= last
        assert F(0) <= last and first <= min(amount, debt) + 0


# --- run_ledger ----------------------------------------------------------------

def eligible_partition(*addresses):
    events = []
    for i, a in enumerate(addresses):
        events.append(ev("collateral_deposit", 2 * i, actor=a, protocol="Aave"))
        events.append(ev("collateral_deposit", 2 * i + 1, actor=a, protocol="Compound"))
    return group_addresses([], address_protocol_map(events))


def test_no_eligible_groups_means_zero_totals():
    # 1 protocol
    partition = group_addresses([], address_protocol_map([ev("collateral_deposit", 0)]))
    events = [ev("debt_create", 1, amount=10), ev("collateral_deposit", 2, amount=10)]
    run = run_ledger(events, partition, flat_valuer)
    assert run.flow_records == []
    assert run.stats["skipped_unrouted"] == 2


def test_full_taint_deposit_equals_its_usd_value():
    partition = eligible_partition(GROUP)
    events = [
        ev("debt_create", 10, currency="WETH", amount=3),
        ev("collateral_deposit", 11, currency="WETH", amount=3, protocol="Compound"),
    ]
    run = run_ledger(events, partition, flat_valuer)
    (record,) = run.flow_records
    assert (record.protocol, record.currency) == ("Compound", "WETH")
    assert (record.debt_usd, record.nondebt_usd) == (600 * U, 0)  # 3 WETH x 200 USD


def test_no_debt_group_reports_zero_debt_flow():
    partition = eligible_partition(GROUP)
    events = [
        ev("collateral_deposit", 10, amount=100),
        ev("swap", 11, sent="DAI", received="USDC", amount_sent=5, amount_received=5),
        ev("collateral_deposit", 12, currency="USDC", amount=50),
    ]
    run = run_ledger(events, partition, flat_valuer)
    assert len(run.flow_records) == 2
    assert all(record.debt_usd == 0 for record in run.flow_records)


def test_shuffled_delivery_yields_identical_totals():
    rng = random.Random(5)
    actors = ["0x" + f"{i:040x}" for i in (1, 2, 3)]
    partition = eligible_partition(*actors)
    events = []
    for i in range(60):
        actor = rng.choice(actors)
        kind = rng.choice(["debt_create", "debt_repay", "collateral_deposit",
                           "collateral_withdraw", "swap"])
        if kind == "swap":
            events.append(ev("swap", 100 + i, actor=actor, sent="DAI", received="USDC",
                             amount_sent=rng.randint(1, 50), amount_received=rng.randint(1, 50)))
        else:
            events.append(ev(kind, 100 + i, actor=actor, amount=rng.randint(1, 100)))
    baseline = run_ledger(events, partition, flat_valuer)
    shuffled = events[:]
    rng.shuffle(shuffled)
    again = run_ledger(shuffled, partition, flat_valuer)
    assert again.flow_records == baseline.flow_records


def test_duplicate_position_raises():
    partition = eligible_partition(GROUP)
    events = [ev("debt_create", 1, amount=1), ev("debt_create", 1, amount=2)]
    with pytest.raises(SequencingError):
        run_ledger(events, partition, flat_valuer)


def test_cross_group_repay_is_flagged():
    partition = eligible_partition(GROUP, "0x" + "02" * 20)
    events = [
        ev("debt_create", 10, amount=10),
        ev("debt_repay", 11, amount=5, on_behalf_of="0x" + "02" * 20),
    ]
    run = run_ledger(events, partition, flat_valuer)
    assert run.stats["cross_group_repays"] == 1
    # the repay still applies to the actor's group
    assert run.group_ledgers[GROUP].wallet_debt["DAI"] == 5 * U


# --- invariants under random streams -------------------------------------------

KINDS = ["debt_create", "debt_repay", "collateral_deposit", "collateral_withdraw", "swap"]
CURRENCIES = ["DAI", "USDC", "USDT", "WETH", "WBTC"]


@st.composite
def event_stream(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    events = []
    for i in range(n):
        kind = draw(st.sampled_from(KINDS))
        amount = F(draw(st.integers(min_value=0, max_value=10_000)), 100)
        if kind == "swap":
            sent, received = draw(st.sampled_from([
                ("DAI", "USDC"), ("USDC", "WETH"), ("WETH", "WBTC"), ("USDT", "DAI"),
            ]))
            received_amount = F(draw(st.integers(min_value=0, max_value=10_000)), 100)
            events.append(ev("swap", i, sent=sent, received=received,
                             amount_sent=amount, amount_received=received_amount))
        else:
            events.append(ev(kind, i,
                             currency=draw(st.sampled_from(CURRENCIES)),
                             amount=amount,
                             protocol=draw(st.sampled_from(["Aave", "Compound", "Maker"]))))
    return events


@settings(max_examples=80, deadline=None)
@given(events=event_stream())
def test_stream_invariants(events):
    ledger = GroupLedger(GROUP, flat_valuer)
    created = {c: 0 for c in CURRENCIES}
    repaid_effective = {c: 0 for c in CURRENCIES}
    saw_swap = False
    records = []
    for e in events:
        if e.kind == "debt_repay":
            before = ledger.wallet_debt[e.currency]
            repaid_effective[e.currency] += min(e.amount, before)
        if e.kind == "debt_create":
            created[e.currency] += e.amount
        if e.kind == "swap":
            saw_swap = True
            if e.amount_sent > 0:
                pct = min(F(1), ledger.wallet_debt[e.currency_sent] / e.amount_sent)
                assert F(0) <= pct <= F(1)
        records.append(ledger.apply(e))
        for balance in ledger.wallet_debt.values():
            assert balance >= 0
        for balance in ledger.platform_debt.values():
            assert balance >= 0
    for record in filter(None, records):
        assert record.debt_token + record.nondebt_token > 0 or record.debt_token == 0
        assert record.debt_token >= 0 and record.nondebt_token >= 0
    if not saw_swap:
        for c in CURRENCIES:
            platform_total = sum(
                v for (_, cur), v in ledger.platform_debt.items() if cur == c
            )
            assert ledger.wallet_debt[c] + platform_total == created[c] - repaid_effective[c]
            assert ledger.wallet_debt[c] + platform_total <= created[c]


@settings(max_examples=40, deadline=None)
@given(events=event_stream())
def test_production_matches_interpreter(events):
    partition = eligible_partition(GROUP)
    run = run_ledger(events, partition, flat_valuer)
    _, _, rows = taint_interpreter(
        events,
        lambda a: GROUP if a == GROUP else None,
        flat_price,
    )
    assert run.flow_records == [FlowRecord(*row) for row in rows]


# --- the floor rule against exact arithmetic ------------------------------------

DECIMALS = {"DAI": 18, "USDC": 6, "USDT": 6, "WETH": 18, "WBTC": 8}
# each pair crosses a 6-decimal and an 18-decimal currency
CROSS_LEGS = [("USDC", "WETH"), ("WETH", "USDC"), ("DAI", "USDT"), ("USDT", "DAI"),
              ("USDC", "DAI"), ("WETH", "USDT")]


def decoded_amount(draw, currency):
    """An amount as decode builds it: up to 10**4 tokens of raw base units."""
    decimals = DECIMALS[currency]
    return normalize_amount(draw(st.integers(0, 10 ** (decimals + 4))), decimals)


@st.composite
def cross_decimal_stream(draw):
    """Single events mixed with borrow -> swap -> deposit loops, the chain
    that carries taint across currencies."""
    specs = []
    for _ in range(draw(st.integers(min_value=1, max_value=15))):
        step = draw(st.sampled_from(KINDS + ["loop"]))
        if step == "loop":
            sent, received = draw(st.sampled_from(CROSS_LEGS))
            specs += [("debt_create", sent), ("swap", (sent, received)),
                      ("collateral_deposit", received)]
        elif step == "swap":
            specs.append((step, draw(st.sampled_from(CROSS_LEGS))))
        else:
            specs.append((step, draw(st.sampled_from(sorted(DECIMALS)))))
    events = []
    for i, (kind, currency) in enumerate(specs):
        position = dict(actor=GROUP, block_number=10_000_000 + i, log_index=0,
                        timestamp=T0 + i * 3600)
        if kind == "swap":
            sent, received = currency
            events.append(CanonicalEvent(
                kind=kind, protocol="Uniswap", currency_sent=sent, currency_received=received,
                amount_sent=decoded_amount(draw, sent),
                amount_received=decoded_amount(draw, received), **position,
            ))
        else:
            events.append(CanonicalEvent(
                kind=kind, protocol=draw(st.sampled_from(["Aave", "Compound"])),
                currency=currency, amount=decoded_amount(draw, currency), **position,
            ))
    return events


def assert_floor_rule(events, partition, valuer, price_of):
    """The production ledger against the exact rational run of the same
    events: no created taint, an exact split, and every shortfall within
    the bound the ledger docstring derives.  Returns the debt shortfalls."""
    production = run_ledger(events, partition, valuer)
    group_of = partition.eligible_rep_of
    _, _, exact_rows = taint_interpreter(events, group_of, price_of, exact=True)
    bounds = shortfall_bounds(events, group_of)
    assert len(production.flow_records) == len(exact_rows) == len(bounds)
    shortfalls = []
    for record, exact, bound in zip(production.flow_records, exact_rows, bounds):
        exact_debt, exact_nondebt, exact_debt_usd = exact[6], exact[7], exact[8]
        assert record.debt_token + record.nondebt_token == exact_debt + exact_nondebt
        assert 0 <= exact_debt - record.debt_token <= bound
        price = price_of(record.currency, record.timestamp)
        assert 0 <= exact_debt_usd - record.debt_usd <= price * bound + 1
        shortfalls.append(exact_debt - record.debt_token)
    return shortfalls


@settings(max_examples=200, deadline=None)
@given(events=cross_decimal_stream())
def test_floor_rule_stays_within_its_bound_of_exact_arithmetic(events):
    assert_floor_rule(events, eligible_partition(GROUP), flat_valuer, flat_price)


def test_floor_rule_on_the_bundled_fixture():
    decoded, partition, price_of = load_fixture_pipeline()

    def valuer(symbol, amount, ts):
        return math.floor(amount * price_of(symbol, ts))

    shortfalls = assert_floor_rule(decoded.events, partition, valuer, price_of)
    # swaps there leave remainders, so the rule is exercised, not vacuous
    assert any(shortfalls)
