#!/usr/bin/env python3
"""The first-out debt-taint ledger, from a toy scenario to the fixture.

Part 1 replays the canonical three-state example by hand: a wallet
holding 100 debt-financed units of one currency swaps them into another
and deposits half the proceeds.  Under first-out the whole deposit is
debt; the proportional and last-out oracles disagree, which is the point.

Part 2 runs the production ledger over the bundled fixture and prints
where debt-financed collateral went.
"""

import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from dfcflow.cluster import (
    address_protocol_map,
    apply_heuristic_pairs,
    extract_heuristic_pairs,
    group_addresses,
    load_denylist,
)
from dfcflow.decode import COLLATERAL_DEPOSIT, CanonicalEvent, decode_stream
from dfcflow.ingest import BlockRange, filter_logs, load_fixture
from dfcflow.ledger import GroupLedger, run_ledger
from dfcflow.market import PriceSeries, make_valuer
from dfcflow.registry import ContractRegistry
from dfcflow.util import SCALE, format_fixed
from tests.oracles import heuristic_oracles  # the proportional and last-out oracles

F = Fraction


def shown(balances):
    """Fixed-point balances (ints of 1/SCALE tokens) as decimal strings."""
    return {key: format_fixed(units) for key, units in balances.items()}


# --- part 1: the three-state scenario ----------------------------------------

print("=== three-state scenario, first-out ===")
wallet = "0x" + "01" * 20
ledger = GroupLedger(wallet, lambda sym, amt, ts: amt)  # 1:1 USD for the demo

def event(kind, position, **kw):
    base = dict(kind=kind, protocol=kw.pop("protocol", "Compound"), actor=wallet,
                block_number=10_000_000 + position, log_index=0,
                timestamp=1_588_598_520 + position)
    return CanonicalEvent(**base, **kw)

ledger.apply(event("debt_create", 0, currency="DAI", amount=100 * SCALE, protocol="Maker"))
print(f"S0: wallet debt {shown(ledger.wallet_debt)}")

ledger.apply(event("swap", 1, protocol="Uniswap", currency_sent="DAI", currency_received="USDC",
                   amount_sent=100 * SCALE, amount_received=100 * SCALE))
print(f"S1: wallet debt {shown(ledger.wallet_debt)}  (taint followed the swap)")

deposit = ledger.apply(event("collateral_deposit", 2, currency="USDC", amount=50 * SCALE))
print(f"S2: wallet debt {shown(ledger.wallet_debt)}, "
      f"platform debt {shown(ledger.platform_debt)}")
print(f"debt-financed deposit flow: {format_fixed(deposit.debt_usd)}")

print("\n=== the same deposit under all three heuristics ===")
initial = {"DAI": (F(100), F(0)), "USDC": (F(0), F(100))}
transactions = [("swap", "DAI", F(100), "USDC", F(100)),
                ("deposit", "Compound", "USDC", F(50))]
for name, attributions in heuristic_oracles(initial, transactions).items():
    print(f"  {name:13s} attributes {attributions[1]} of the 50-unit deposit to debt")

# --- part 2: the bundled fixture ----------------------------------------------

print("\n=== bundled fixture ===")
registry = ContractRegistry.from_json_file(ROOT / "config" / "registry.json")
logs = load_fixture(ROOT / "data" / "fixture_logs.jsonl")
kept = filter_logs(logs, registry, BlockRange(10_000_000, 10_700_000))
decoded = decode_stream(kept, registry)
denylist = load_denylist(ROOT / "data" / "denylist.csv")
activity = address_protocol_map(decoded.events)
partition = apply_heuristic_pairs(
    group_addresses(decoded.vault_triples, activity),
    extract_heuristic_pairs(decoded.events, denylist),
    activity,
)
prices = PriceSeries.from_csv(ROOT / "data" / "prices.csv")
run = run_ledger(decoded.events, partition, make_valuer(prices, registry.currencies))

print(f"events applied: {run.stats['applied']}, "
      f"outside eligible groups: {run.stats['skipped_unrouted']}")
deposits = [r for r in run.flow_records if r.kind == COLLATERAL_DEPOSIT]
print(f"total debt-financed deposit flow: "
      f"${sum(r.debt_usd for r in deposits) / SCALE / 1e6:,.1f}M")

by_currency = {}
for record in deposits:
    slot = by_currency.setdefault(record.currency, [0, 0])
    slot[0] += record.debt_usd
    slot[1] += record.debt_usd + record.nondebt_usd
print("\ndebt share of deposits by currency:")
for currency in sorted(by_currency):
    debt, total = by_currency[currency]
    print(f"  {currency:5s} {100 * debt / total:5.1f}% of "
          f"${total / SCALE / 1e6:,.0f}M")
