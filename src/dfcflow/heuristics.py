"""Taint heuristics on fully known balances: an oracle for tests and demos.

The production ledger (`dfcflow.ledger`) needs only the running debt
balance, which is the point of the first-out rule.  Proportional and
last-out attribution need the full wallet balance, so they live here,
over synthetic scenarios where the non-debt side is known.  No pipeline
stage uses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import LedgerError
from .util import ZERO


def attribute_first_out(amount: Fraction, debt: Fraction, nondebt: Fraction) -> Fraction:
    return min(amount, debt)


def attribute_proportional(amount: Fraction, debt: Fraction, nondebt: Fraction) -> Fraction:
    total = debt + nondebt
    if total == 0:
        return ZERO
    return amount * debt / total


def attribute_last_out(amount: Fraction, debt: Fraction, nondebt: Fraction) -> Fraction:
    return max(ZERO, amount - nondebt)


HEURISTICS = {
    "first_out": attribute_first_out,
    "proportional": attribute_proportional,
    "last_out": attribute_last_out,
}


@dataclass
class ScenarioState:
    """Wallet and platform balances split into debt / non-debt components."""

    wallet: dict[str, list[Fraction]] = field(default_factory=dict)
    platform: dict[tuple[str, str], list[Fraction]] = field(default_factory=dict)

    def wallet_slot(self, currency: str) -> list[Fraction]:
        return self.wallet.setdefault(currency, [ZERO, ZERO])

    def platform_slot(self, protocol: str, currency: str) -> list[Fraction]:
        return self.platform.setdefault((protocol, currency), [ZERO, ZERO])


def run_full_balance_scenario(
    initial_wallet: dict[str, tuple[Fraction, Fraction]],
    transactions: Sequence[tuple],
    heuristic: str,
) -> tuple[list[Fraction], ScenarioState]:
    """Replay a fully specified scenario under one taint heuristic.

    `initial_wallet` maps currency -> (debt, nondebt).  Transactions:
        ("deposit",  protocol, currency, amount)
        ("withdraw", protocol, currency, amount)
        ("swap",     currency_sent, amount_sent, currency_received, amount_received)
        ("debt_create", currency, amount)
        ("debt_repay",  currency, amount)
    Returns the debt amount attributed to each deposit/withdraw/swap, in
    transaction order, plus the final state.
    """
    attribute = HEURISTICS[heuristic]
    state = ScenarioState()
    for currency, (debt, nondebt) in initial_wallet.items():
        state.wallet[currency] = [Fraction(debt), Fraction(nondebt)]

    attributions: list[Fraction] = []
    for txn in transactions:
        op = txn[0]
        if op == "deposit":
            _, protocol, currency, amount = txn
            slot = state.wallet_slot(currency)
            moved_debt = attribute(amount, slot[0], slot[1])
            slot[0] -= moved_debt
            slot[1] -= amount - moved_debt
            dest = state.platform_slot(protocol, currency)
            dest[0] += moved_debt
            dest[1] += amount - moved_debt
            attributions.append(moved_debt)
        elif op == "withdraw":
            _, protocol, currency, amount = txn
            slot = state.platform_slot(protocol, currency)
            moved_debt = attribute(amount, slot[0], slot[1])
            slot[0] -= moved_debt
            slot[1] -= amount - moved_debt
            dest = state.wallet_slot(currency)
            dest[0] += moved_debt
            dest[1] += amount - moved_debt
            attributions.append(moved_debt)
        elif op == "swap":
            _, sent_cur, sent_amt, recv_cur, recv_amt = txn
            slot = state.wallet_slot(sent_cur)
            moved_debt = attribute(sent_amt, slot[0], slot[1])
            slot[0] -= moved_debt
            slot[1] -= sent_amt - moved_debt
            dest = state.wallet_slot(recv_cur)
            if sent_amt > 0:
                recv_debt = recv_amt * moved_debt / sent_amt
            else:
                recv_debt = ZERO
            dest[0] += recv_debt
            dest[1] += recv_amt - recv_debt
            attributions.append(moved_debt)
        elif op == "debt_create":
            _, currency, amount = txn
            state.wallet_slot(currency)[0] += amount
        elif op == "debt_repay":
            _, currency, amount = txn
            slot = state.wallet_slot(currency)
            from_debt = min(amount, slot[0])
            slot[0] -= from_debt
            slot[1] -= amount - from_debt
        else:
            raise ValueError(f"unknown scenario op {op!r}")
        for balances in list(state.wallet.values()) + list(state.platform.values()):
            if balances[0] < 0 or balances[1] < 0:
                raise LedgerError(f"scenario balance went negative after {txn}")
    return attributions, state


def heuristic_oracles(
    initial_wallet: dict[str, tuple[Fraction, Fraction]],
    transactions: Sequence[tuple],
) -> dict[str, list[Fraction]]:
    """Per-transaction debt attribution under all three heuristics."""
    return {
        name: run_full_balance_scenario(initial_wallet, transactions, name)[0]
        for name in HEURISTICS
    }
