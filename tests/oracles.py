"""Independent reference implementations used to cross-check production code.

These deliberately avoid the production data structures: the taint
interpreter is a flat loop over plain dicts, grouping is brute-force
connected components via networkx, the log decoder reads each field
through its registry locator with its own bounds check, and the
correlation oracle recomputes Pearson R and its p-value from definitions
in 50-digit arithmetic.

The taint heuristics at the end replay scenarios on fully known
balances.  The production ledger needs only the running debt balance,
which is the point of the first-out rule; proportional and last-out
attribution need the full wallet balance, so they live here, over
synthetic scenarios where the non-debt side is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from typing import Sequence

import networkx as nx
from mpmath import mp, mpf, betainc, fabs, sqrt as mp_sqrt

from dfcflow.decode import (
    ApprovalEvent, CanonicalEvent, DecodeResult, VaultTriple, normalize_amount,
)
from dfcflow.errors import DecodeError, LedgerError
from dfcflow.registry import Locator
from dfcflow.util import to_hex

ZERO = Fraction(0)


def _month(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m")


def taint_interpreter(events, group_of, price_of, *, exact=False):
    """Straight-line first-out interpreter.

    events: objects with kind/protocol/actor/currency/amount/... fields
    (sorted internally by (block_number, log_index)), amounts in units of
    1/SCALE tokens.
    group_of: address -> group id or None (None = skip event).
    price_of: (currency symbol, timestamp) -> Fraction USD per token.

    Every quotient is floored to a whole unit, the rounding rule of
    `dfcflow.ledger`; with `exact=True` nothing is rounded, which gives
    the exact rational run that rule is measured against.

    Returns (sum_debt_usd, buckets, rows) where buckets maps
    (month, protocol, currency) -> (debt_usd, nondebt_usd) over deposits
    and rows lists every deposit/withdraw split as plain tuples
    (group, ts, block, protocol, currency, kind, debt_tok, nondebt_tok,
    debt_usd, nondebt_usd).
    """
    rnd = (lambda x: x) if exact else math.floor
    wallet: dict = {}
    platform: dict = {}
    sum_debt = 0
    buckets: dict = {}
    rows: list = []

    for e in sorted(events, key=lambda e: (e.block_number, e.log_index)):
        g = group_of(e.actor)
        if g is None:
            continue
        if e.kind == "debt_create":
            key = (g, e.currency)
            wallet[key] = wallet.get(key, 0) + e.amount
        elif e.kind == "debt_repay":
            key = (g, e.currency)
            have = wallet.get(key, 0)
            wallet[key] = have - min(e.amount, have)
        elif e.kind == "collateral_deposit":
            key = (g, e.currency)
            have = wallet.get(key, 0)
            debt_amt = min(e.amount, have)
            nondebt_amt = e.amount - debt_amt
            wallet[key] = have - debt_amt
            pkey = (g, e.protocol, e.currency)
            platform[pkey] = platform.get(pkey, 0) + debt_amt
            price = price_of(e.currency, e.timestamp)
            debt_usd = rnd(debt_amt * price)
            nondebt_usd = rnd(nondebt_amt * price)
            sum_debt += debt_usd
            bkey = (_month(e.timestamp), e.protocol, e.currency)
            old = buckets.get(bkey, (0, 0))
            buckets[bkey] = (old[0] + debt_usd, old[1] + nondebt_usd)
            rows.append((g, e.timestamp, e.block_number, e.protocol, e.currency,
                         "collateral_deposit", debt_amt, nondebt_amt, debt_usd, nondebt_usd))
        elif e.kind == "collateral_withdraw":
            pkey = (g, e.protocol, e.currency)
            held = platform.get(pkey, 0)
            moved = min(e.amount, held)
            platform[pkey] = held - moved
            key = (g, e.currency)
            wallet[key] = wallet.get(key, 0) + moved
            price = price_of(e.currency, e.timestamp)
            rows.append((g, e.timestamp, e.block_number, e.protocol, e.currency,
                         "collateral_withdraw", moved, e.amount - moved,
                         rnd(moved * price), rnd((e.amount - moved) * price)))
        elif e.kind == "swap":
            skey = (g, e.currency_sent)
            rkey = (g, e.currency_received)
            if e.amount_sent != 0:
                have = wallet.get(skey, 0)
                pct = min(Fraction(1), Fraction(have) / e.amount_sent)
                wallet[skey] = rnd(have - e.amount_sent * pct)
                wallet[rkey] = wallet.get(rkey, 0) + rnd(e.amount_received * pct)
        else:
            raise AssertionError(f"unexpected kind {e.kind}")
    return sum_debt, buckets, rows


def shortfall_bounds(events, group_of):
    """For each row `taint_interpreter` returns, the bound b_c that the
    `dfcflow.ledger` docstring derives on how far its floored debt amount
    may fall below the exact one: b_c starts at 0 per (group, currency),
    and each swap adds (amount_received / amount_sent) * b_sent + 1 to
    the received currency's."""
    bound: dict = {}
    out = []
    for e in sorted(events, key=lambda e: (e.block_number, e.log_index)):
        g = group_of(e.actor)
        if g is None:
            continue
        if e.kind == "swap":
            if e.amount_sent != 0:
                rate = Fraction(e.amount_received, e.amount_sent)
                carried = rate * bound.get((g, e.currency_sent), 0)
                rkey = (g, e.currency_received)
                bound[rkey] = bound.get(rkey, 0) + carried + 1
        elif e.kind in ("collateral_deposit", "collateral_withdraw"):
            out.append(bound.get((g, e.currency), 0))
    return out


def brute_force_grouping(triples, events, pairs):
    """Connected-components reference for the whole grouping pipeline.

    Returns (eligible_family, full_family): frozensets of frozensets of
    addresses, the first being groups that touch >= 2 protocols after
    pair application, the second every group including residuals.
    """
    base_graph = nx.Graph()
    for t in triples:
        addrs = sorted({t.user, t.proxy, t.urn})
        base_graph.add_nodes_from(addrs)
        for a, b in zip(addrs, addrs[1:]):
            base_graph.add_edge(a, b)
    protocols: dict[str, set[str]] = {}
    for e in events:
        base_graph.add_node(e.actor)
        protocols.setdefault(e.actor, set()).add(e.protocol)

    base_groups = [frozenset(c) for c in nx.connected_components(base_graph)]
    eligible_base = [
        g for g in base_groups
        if len(set().union(*(protocols.get(a, set()) for a in g))) >= 2
    ]
    eligible_members = set().union(*eligible_base) if eligible_base else set()

    pair_graph = nx.Graph()
    for g in eligible_base:
        members = sorted(g)
        pair_graph.add_nodes_from(members)
        for a, b in zip(members, members[1:]):
            pair_graph.add_edge(a, b)
    for p in pairs:
        pair_graph.add_edge(p.r1, p.r2)

    final_eligible = []
    moved: set[str] = set()
    for comp in nx.connected_components(pair_graph):
        comp = frozenset(comp)
        if comp & eligible_members:
            final_eligible.append(comp)
            moved |= comp

    residuals = []
    for g in base_groups:
        if g in set(eligible_base):
            continue
        rest = g - moved
        if rest:
            residuals.append(frozenset(rest))
    return frozenset(final_eligible), frozenset(final_eligible) | frozenset(residuals)


def _read_topic(log, index: int) -> bytes:
    if index >= len(log.topics):
        raise DecodeError(
            f"topic index {index} out of bounds ({len(log.topics)} topics)",
            to_hex(log.tx_hash),
            log.log_index,
        )
    return log.topics[index]


def _read_data(log, offset: int, length: int) -> bytes:
    if offset + length > len(log.data):
        raise DecodeError(
            f"data field too short: need {offset + length} bytes, have {len(log.data)}",
            to_hex(log.tx_hash),
            log.log_index,
        )
    return log.data[offset:offset + length]


def _address_bytes(log, locator) -> bytes:
    if locator.source == "topic":
        return _read_topic(log, locator.index)[12:]
    return _read_data(log, locator.index, 20)


def extract_actor(log, locator) -> str:
    """The address at `locator`: the low 20 bytes of a topic, or the 20
    bytes at a data byte offset."""
    return to_hex(_address_bytes(log, locator))


def _read_uint(log, locator) -> int:
    if locator.source == "topic":
        word = _read_topic(log, locator.index)
    else:
        word = _read_data(log, locator.index, 32)
    return int.from_bytes(word, "big")


def _reference_swap(log, rule, registry):
    sent_cur = registry.token_currency(rule.token0)
    recv_cur = registry.token_currency(rule.token1)
    if sent_cur is None or recv_cur is None:
        return None
    if sent_cur.symbol == recv_cur.symbol:
        raise DecodeError(
            f"pair {to_hex(rule.contract)} resolves both legs to {sent_cur.symbol}",
            to_hex(log.tx_hash),
            log.log_index,
        )
    in0, in1, out0, out1 = (_read_uint(log, Locator("data", offset)) for offset in (0, 32, 64, 96))
    net0 = in0 - out0
    net1 = in1 - out1
    if net0 > 0 and net1 < 0:
        sent_amt, recv_amt = net0, -net1
    elif net1 > 0 and net0 < 0:
        sent_cur, recv_cur = recv_cur, sent_cur
        sent_amt, recv_amt = net1, -net0
    else:
        return None
    actor = extract_actor(log, rule.actor)
    recipient = extract_actor(log, rule.recipient)
    return CanonicalEvent(
        kind="swap",
        protocol=rule.protocol,
        actor=actor,
        block_number=log.block_number,
        log_index=log.log_index,
        timestamp=log.timestamp,
        currency_sent=sent_cur.symbol,
        currency_received=recv_cur.symbol,
        amount_sent=normalize_amount(sent_amt, sent_cur.decimals),
        amount_received=normalize_amount(recv_amt, recv_cur.decimals),
        on_behalf_of=recipient if recipient != actor else None,
    )


def _reference_event(log, rule, registry):
    if rule.kind in ("liquidation", "vault_open", "approval"):
        return None
    if rule.kind == "swap":
        return _reference_swap(log, rule, registry)
    if rule.currency_fixed is not None:
        currency = registry.currency(rule.currency_fixed)
    else:
        currency = registry.token_currency(_address_bytes(log, rule.currency_token))
    if currency is None:
        return None
    actor = extract_actor(log, rule.actor)
    beneficiary = None
    if rule.on_behalf_of is not None:
        named = extract_actor(log, rule.on_behalf_of)
        if named != actor:
            beneficiary = named
    return CanonicalEvent(
        kind=rule.kind,
        protocol=rule.protocol,
        actor=actor,
        block_number=log.block_number,
        log_index=log.log_index,
        timestamp=log.timestamp,
        currency=currency.symbol,
        amount=normalize_amount(_read_uint(log, rule.amount), currency.decimals),
        on_behalf_of=beneficiary,
    )


def reference_decode_stream(logs, registry) -> DecodeResult:
    """Locator-by-locator decoder: each field read through its registry
    locator, with its own bounds check, in the order the rule names them.

    The currency token of a lending event is read first, and an
    out-of-scope one gives None; a swap reads its four amount words, and
    a degenerate one gives None before the actor and recipient are read.
    """
    result = DecodeResult()

    def bump(key):
        result.stats[key] = result.stats.get(key, 0) + 1

    for log in logs:
        rule = registry.rules.get((log.contract_address, log.topic0))
        if rule is None:
            bump("unmatched")
        elif rule.kind == "vault_open":
            user = extract_actor(log, rule.vault_user)
            proxy = extract_actor(log, rule.vault_proxy)
            urn = extract_actor(log, rule.vault_urn) if rule.vault_urn else proxy
            result.vault_triples.append(VaultTriple(user, proxy, urn))
            bump("vault_open")
        elif rule.kind == "approval":
            result.approvals.append(ApprovalEvent(
                token=registry.tokens[rule.contract],
                owner=extract_actor(log, rule.owner),
                spender=extract_actor(log, rule.spender),
                block_number=log.block_number,
                log_index=log.log_index,
                timestamp=log.timestamp,
            ))
            bump("approval")
        else:
            event = _reference_event(log, rule, registry)
            if event is None:
                bump("liquidation_excluded" if rule.kind == "liquidation" else "not_relevant")
            else:
                result.events.append(event)
                bump(event.kind)
    return result


def pearson_reference(xs, ys):
    """From-definition Pearson R and two-sided p at 50 significant digits.

    p uses the identity P(|T| > t) = I_{v/(v+t^2)}(v/2, 1/2) for Student's
    t with v degrees of freedom (regularized incomplete beta).
    """
    mp.dps = 50
    n = len(xs)
    X = [mpf(v) for v in xs]
    Y = [mpf(v) for v in ys]
    mx = sum(X) / n
    my = sum(Y) / n
    dx = [v - mx for v in X]
    dy = [v - my for v in Y]
    ssx = sum(v * v for v in dx)
    ssy = sum(v * v for v in dy)
    if ssx == 0 or ssy == 0:
        raise ZeroDivisionError("zero variance")
    r = sum(a * b for a, b in zip(dx, dy)) / mp_sqrt(ssx * ssy)
    if fabs(r) >= 1:
        return float(r), 0.0
    dof = n - 2
    t_sq = r * r * dof / (1 - r * r)
    p = betainc(mpf(dof) / 2, mpf(1) / 2, 0, dof / (dof + t_sq), regularized=True)
    return float(r), float(p)


# --- taint heuristics on fully known balances ----------------------------------

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
