"""Acceptance suite: one test per release criterion, with stated budgets.

Each criterion prints a PASS/FAIL line in the terminal summary (see
conftest).  Budgets are wall-clock upper bounds asserted inside the tests.
"""

import json
import math
import os
import random
import time
from fractions import Fraction

import pytest

from dfcflow import cluster, decode, ingest, market, report
from dfcflow.cli import main as cli_main
from dfcflow.decode import CanonicalEvent, VaultTriple
from dfcflow.cluster import HeuristicPair
from dfcflow.ledger import GroupLedger, run_ledger
from dfcflow.registry import ContractRegistry
from dfcflow.rpc import fetch_logs
from dfcflow.util import SCALE as U

from tests.conftest import (
    DATA_DIR, FIXTURE_CONFIG, GOLDEN_DIR, REGISTRY_PATH, eligible_family, group_family, units,
)
from tests.oracles import (
    attribute_first_out,
    attribute_last_out,
    attribute_proportional,
    brute_force_grouping,
    heuristic_oracles,
    pearson_reference,
    run_full_balance_scenario,
    taint_interpreter,
)

F = Fraction
T0 = 1_588_598_520
REPORT_FILES = (
    "monthly_dfc.csv",
    "protocol_breakdown.csv",
    "correlations.csv",
    "summary.csv",
    "cluster_comparison.csv",
)


def flat_price(symbol, ts):
    return {"DAI": F(1), "USDC": F("1.01"), "USDT": F("0.99"),
            "WETH": F(200), "WBTC": F(9000)}[symbol]


def flat_valuer(symbol, amount, ts):
    return math.floor(amount * flat_price(symbol, ts))


def make_event(kind, position, actor, currency="DAI", amount=0, protocol="Aave",
               sent=None, received=None, amount_sent=None, amount_received=None):
    if kind == "swap":
        return CanonicalEvent(
            kind=kind, protocol="Uniswap", actor=actor,
            block_number=10_000_000 + position, log_index=0,
            timestamp=T0 + position * 1800,
            currency_sent=sent, currency_received=received,
            amount_sent=units(amount_sent), amount_received=units(amount_received),
        )
    return CanonicalEvent(
        kind=kind, protocol=protocol, actor=actor,
        block_number=10_000_000 + position, log_index=0,
        timestamp=T0 + position * 1800,
        currency=currency, amount=units(amount),
    )


def eligible_partition(*addresses):
    events = []
    for i, addr in enumerate(addresses):
        events.append(make_event("collateral_deposit", 2 * i, addr, protocol="Aave"))
        events.append(make_event("collateral_deposit", 2 * i + 1, addr, protocol="Compound"))
    return cluster.group_addresses([], cluster.address_protocol_map(events))


# -----------------------------------------------------------------------------
# Criterion 1: the three-state scenario reproduces the published heuristic
# outcomes exactly, in under a second.
# -----------------------------------------------------------------------------

def test_criterion_1_heuristic_outcomes_scenario():
    started = time.perf_counter()
    group = "0x" + "01" * 20

    # production first-out ledger over the three states
    gl = GroupLedger(group, flat_valuer)
    gl.apply(make_event("debt_create", 0, group, currency="DAI", amount=100))
    gl.apply(make_event("swap", 1, group, sent="DAI", received="USDC",
                        amount_sent=100, amount_received=100))
    assert gl.wallet_debt["DAI"] == 0
    assert gl.wallet_debt["USDC"] == 100 * U      # S1: wallet beta debt 100
    gl.apply(make_event("collateral_deposit", 2, group, currency="USDC",
                        amount=50, protocol="Compound"))
    assert gl.wallet_debt["USDC"] == 50 * U        # S2: wallet beta debt 50
    assert gl.platform_debt[("Compound", "USDC")] == 50 * U  # S2: platform beta debt 50

    # full-balance oracles: proportional 25/25 split, last-out moves no debt
    initial = {"alpha": (F(100), F(0)), "beta": (F(0), F(100))}
    txns = [("swap", "alpha", F(100), "beta", F(100)),
            ("deposit", "P", "beta", F(50))]
    attributions = heuristic_oracles(initial, txns)
    assert attributions["first_out"][1] == 50
    assert attributions["proportional"][1] == 25
    assert attributions["last_out"][1] == 0
    _, prop_state = run_full_balance_scenario(initial, txns, "proportional")
    assert prop_state.platform[("P", "beta")] == [F(25), F(25)]
    _, last_state = run_full_balance_scenario(initial, txns, "last_out")
    assert last_state.platform[("P", "beta")] == [F(0), F(50)]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"


# -----------------------------------------------------------------------------
# Criterion 2: production ledger equals the straight-line interpreter exactly,
# on the bundled fixture and 200 seeded random event sequences, in < 10 s.
# -----------------------------------------------------------------------------

CURRENCIES = ("DAI", "USDC", "USDT", "WETH", "WBTC")
SWAP_LEGS = (("DAI", "USDC"), ("USDC", "WETH"), ("WETH", "WBTC"),
             ("USDT", "DAI"), ("WBTC", "USDT"))


def random_sequence(rng, actors):
    events = []
    n = rng.randint(1, 50)
    for i in range(n):
        actor = rng.choice(actors)
        kind = rng.choice(("debt_create", "debt_repay", "collateral_deposit",
                           "collateral_withdraw", "swap"))
        if kind == "swap":
            sent, received = rng.choice(SWAP_LEGS)
            events.append(make_event(
                "swap", i, actor, sent=sent, received=received,
                amount_sent=F(rng.randint(0, 10_000), 100),
                amount_received=F(rng.randint(0, 10_000), 100),
            ))
        else:
            events.append(make_event(
                kind, i, actor,
                currency=rng.choice(CURRENCIES),
                amount=F(rng.randint(0, 10_000), 100),
                protocol=rng.choice(("Aave", "Compound", "Maker")),
            ))
    return events


def run_both(events, partition, price_of):
    def valuer(symbol, amount, ts):
        return math.floor(amount * price_of(symbol, ts))

    production = run_ledger(events, partition, valuer)
    _, _, oracle_rows = taint_interpreter(events, partition.eligible_rep_of, price_of)
    assert len(production.flow_records) == len(oracle_rows)
    for record, row in zip(production.flow_records, oracle_rows):
        assert (record.group, record.timestamp, record.block_number, record.protocol,
                record.currency, record.kind, record.debt_token, record.nondebt_token,
                record.debt_usd, record.nondebt_usd) == row
    return production


def load_fixture_pipeline():
    registry = ContractRegistry.from_json_file(REGISTRY_PATH)
    logs = ingest.load_fixture(DATA_DIR / "fixture_logs.jsonl")
    kept = ingest.filter_logs(logs, registry, ingest.BlockRange(10_000_000, 10_700_000))
    decoded = decode.decode_stream(kept, registry)
    denylist = cluster.load_denylist(DATA_DIR / "denylist.csv")
    activity = cluster.address_protocol_map(decoded.events)
    partition = cluster.apply_heuristic_pairs(
        cluster.group_addresses(decoded.vault_triples, activity),
        cluster.extract_heuristic_pairs(decoded.events, denylist),
        activity,
    )
    prices = market.PriceSeries.from_csv(DATA_DIR / "prices.csv")

    def price_of(symbol, ts):
        return prices.price_at(registry.currencies[symbol].price_key, ts)

    return decoded, partition, price_of


def test_criterion_2_dual_implementation_oracle():
    started = time.perf_counter()

    decoded, partition, price_of = load_fixture_pipeline()
    assert len(decoded.events) >= 450
    run_both(decoded.events, partition, price_of)

    actors = ["0x" + f"{i:040x}" for i in (1, 2, 3)]
    partition3 = eligible_partition(*actors)
    rng = random.Random(20_240_501)
    for _ in range(200):
        events = random_sequence(rng, actors)
        run_both(events, partition3, flat_price)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s"


# -----------------------------------------------------------------------------
# Criterion 3: grouping equals brute-force connected components and is
# permutation invariant, over 500 random instances, in < 10 s.
# -----------------------------------------------------------------------------

def random_grouping_instance(rng):
    pool = ["0x" + f"{i:040x}" for i in range(1, rng.randint(2, 200) + 1)]
    triples = [
        VaultTriple(rng.choice(pool), rng.choice(pool), rng.choice(pool))
        for _ in range(rng.randint(0, 50))
    ]
    events = []
    for i in range(rng.randint(0, 80)):
        events.append(make_event(
            "collateral_deposit", i, rng.choice(pool),
            protocol=rng.choice(("Aave", "Compound", "Maker", "Uniswap")),
        ))
    pairs = []
    for _ in range(rng.randint(0, 50)):
        a, b = rng.sample(pool, 2)
        pairs.append(HeuristicPair(a, b, "UniswapSwapRecipient"))
    return triples, events, pairs


def test_criterion_3_clustering_equals_brute_force():
    started = time.perf_counter()
    rng = random.Random(31_337)
    for index in range(500):
        triples, events, pairs = random_grouping_instance(rng)
        activity = cluster.address_protocol_map(events)
        result = cluster.apply_heuristic_pairs(
            cluster.group_addresses(triples, activity), pairs, activity
        )
        result.validate()
        oracle_eligible, oracle_full = brute_force_grouping(triples, events, pairs)
        assert eligible_family(result) == oracle_eligible, f"instance {index}"
        assert group_family(result) == oracle_full, f"instance {index}"
        if index % 5 == 0:  # permutation invariance spot checks
            rng.shuffle(triples)
            rng.shuffle(events)
            rng.shuffle(pairs)
            activity = cluster.address_protocol_map(events)
            shuffled = cluster.apply_heuristic_pairs(
                cluster.group_addresses(triples, activity), pairs, activity
            )
            assert eligible_family(shuffled) == eligible_family(result)
            assert group_family(shuffled) == group_family(result)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 3 took {elapsed:.2f}s"


# -----------------------------------------------------------------------------
# Criterion 4: ledger invariants hold across all oracle runs; heuristic
# dominance holds on 1,000 random single-transaction states.
# -----------------------------------------------------------------------------

def test_criterion_4_ledger_invariant_suite():
    actors = ["0x" + f"{i:040x}" for i in (1, 2, 3)]
    partition3 = eligible_partition(*actors)
    rng = random.Random(40_404)
    for _ in range(100):
        events = random_sequence(rng, actors)
        run = run_ledger(events, partition3, flat_valuer)
        # non-negativity at the final state of every ledger
        for gl in run.group_ledgers.values():
            assert all(v >= 0 for v in gl.wallet_debt.values())
            assert all(v >= 0 for v in gl.platform_debt.values())
        # deposit-split conservation against the source events
        events_by_key = {e.order_key: e for e in events}
        for record in run.flow_records:
            source = events_by_key[(record.block_number, 0)]
            assert record.debt_token + record.nondebt_token == source.amount
            assert record.debt_token >= 0 and record.nondebt_token >= 0
        # swap debt percentage within [0, 1], recomputed by replay
        replay = {}
        for e in sorted(events, key=lambda e: e.order_key):
            rep = partition3.eligible_rep_of(e.actor)
            if rep is None:
                continue
            gl = replay.setdefault(rep, GroupLedger(rep, flat_valuer))
            if e.kind == "swap" and e.amount_sent > 0:
                pct = min(F(1), gl.wallet_debt[e.currency_sent] / e.amount_sent)
                assert F(0) <= pct <= F(1)
            gl.apply(e)

    rng = random.Random(1_000)
    for _ in range(1_000):
        debt = F(rng.randint(0, 100_000), rng.randint(1, 1000))
        nondebt = F(rng.randint(0, 100_000), rng.randint(1, 1000))
        amount = (debt + nondebt) * F(rng.randint(0, 1000), 1000)
        first = attribute_first_out(amount, debt, nondebt)
        prop = attribute_proportional(amount, debt, nondebt)
        last = attribute_last_out(amount, debt, nondebt)
        assert first >= prop >= last


# -----------------------------------------------------------------------------
# Criterion 5: Pearson correctness against the from-definition oracle.
# -----------------------------------------------------------------------------

def test_criterion_5_pearson_correctness():
    xs = [3.25, -1.5, 2.75, 9.0, 4.125, -2.0, 7.5]
    r, p = report.pearson(xs, list(xs))
    assert (r, p) == (1.0, 0.0)
    r, p = report.pearson(xs, [-v for v in xs])
    assert (r, p) == (-1.0, 0.0)

    rng = random.Random(555)
    for _ in range(100):
        n = rng.choice((10, 13, 25, 50, 100, 250, 500, 1000))
        xs = [rng.gauss(0, 5) for _ in range(n)]
        beta = rng.uniform(-1.5, 1.5)
        ys = [beta * x + rng.gauss(0, 4) for x in xs]
        r, p = report.pearson(xs, ys)
        r_ref, p_ref = pearson_reference(xs, ys)
        assert abs(r - r_ref) < 1e-12
        assert abs(p - p_ref) < 1e-12

    # star thresholds at the published boundaries
    def stars(p_value):
        return report.CorrelationResult("price_change", "next_day", 0.0, p_value, 5).stars

    assert stars(0.009) == "***"
    assert stars(0.01) == "**"
    assert stars(0.049) == "**"
    assert stars(0.05) == "*"
    assert stars(0.099) == "*"
    assert stars(0.1) == ""


# -----------------------------------------------------------------------------
# Criterion 6: end-to-end determinism, including shuffled input lines, and
# agreement with the checked-in golden report files.
# -----------------------------------------------------------------------------

def run_all(tmp_path, tag, fixture_path=None):
    out = tmp_path / tag
    overrides = {"output": str(out)}
    config_doc = json.loads(FIXTURE_CONFIG.read_text())
    base = FIXTURE_CONFIG.parent
    for key in ("registry", "fixture", "prices", "denylist"):
        config_doc[key] = str((base / config_doc[key]).resolve())
    if fixture_path is not None:
        config_doc["fixture"] = str(fixture_path)
    config_doc["output"] = str(out)
    config_path = tmp_path / f"config_{tag}.json"
    config_path.write_text(json.dumps(config_doc))
    assert cli_main(["all", "--config", str(config_path), "--quiet"]) == 0
    return out


def test_criterion_6_end_to_end_determinism(tmp_path):
    first = run_all(tmp_path, "first")
    second = run_all(tmp_path, "second")

    shuffled_fixture = tmp_path / "shuffled.jsonl"
    lines = (DATA_DIR / "fixture_logs.jsonl").read_text().splitlines()
    random.Random(99).shuffle(lines)
    shuffled_fixture.write_text("\n".join(lines) + "\n")
    third = run_all(tmp_path, "shuffled", fixture_path=shuffled_fixture)

    for name in REPORT_FILES:
        reference = (GOLDEN_DIR / name).read_bytes()
        assert (first / name).read_bytes() == reference, f"{name} vs golden"
        assert (second / name).read_bytes() == reference, f"{name} rerun"
        assert (third / name).read_bytes() == reference, f"{name} shuffled input"


# -----------------------------------------------------------------------------
# Criterion 7: the collection workflow runs against a user-supplied endpoint
# without code changes; a public-endpoint smoke test is skipped offline.
# -----------------------------------------------------------------------------

def test_criterion_7_rpc_collection_workflow(tmp_path):
    # local archive-node stand-in: the same config schema, rpc_endpoint
    # instead of a fixture path, exercised through the CLI ingest stage
    from tests.test_rpc import _serve

    registry = ContractRegistry.from_json_file(REGISTRY_PATH)
    logs = ingest.load_fixture(DATA_DIR / "fixture_logs.jsonl")
    with _serve(logs) as (endpoint, _):
        out = tmp_path / "rpc_out"
        config_doc = {
            "registry": str(REGISTRY_PATH),
            "from_block": 10_000_000,
            "to_block": 10_020_000,
            "rpc_endpoint": endpoint,
            "prices": str(DATA_DIR / "prices.csv"),
            "denylist": str(DATA_DIR / "denylist.csv"),
            "output": str(out),
            "rpc_window": 5_000,
        }
        config_path = tmp_path / "rpc_config.json"
        config_path.write_text(json.dumps(config_doc))
        assert cli_main(["ingest", "--config", str(config_path), "--quiet"]) == 0
        fetched = ingest.load_fixture(out / "logs.jsonl")
        expected = ingest.filter_logs(
            logs, registry, ingest.BlockRange(10_000_000, 10_020_000)
        )
        assert fetched == expected
        assert len(fetched) > 0


@pytest.mark.skipif(
    not os.environ.get("DFCFLOW_RPC_URL"),
    reason="no public archive endpoint configured (set DFCFLOW_RPC_URL); offline",
)
def test_criterion_7_public_endpoint_smoke():
    registry = ContractRegistry.from_json_file(REGISTRY_PATH)
    endpoint = os.environ["DFCFLOW_RPC_URL"]
    window = ingest.BlockRange(11_000_000, 11_000_099)  # a 100-block window
    logs = fetch_logs(endpoint, window, registry, window_size=100)
    assert all(log.block_number in window for log in logs)
    decoded = decode.decode_stream(logs, registry)
    assert decoded.stats, "expected at least some registry-relevant activity"
