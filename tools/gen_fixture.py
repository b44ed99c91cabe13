#!/usr/bin/env python3
"""Generate the bundled synthetic fixture deterministically.

A few dozen synthetic users act out borrow -> swap -> deposit cycles
across the four protocols over roughly three months of blocks, plus
vault openings, on-behalf repayments, approvals, liquidations and
out-of-scope noise.  Everything is driven by one seeded RNG, so the same
seed always produces byte-identical files; seed 42 gives data/.

Run from the repository root:
    python3 tools/gen_fixture.py --seed 42 --output data
writes fixture_logs.jsonl, prices.csv and denylist.csv into --output.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dfcflow.ingest import RawLog, save_fixture
from dfcflow.market import PriceSeries
from dfcflow.registry import ContractRegistry, EventRule
from dfcflow.synth import (
    START_BLOCK,
    START_TIMESTAMP,
    ZERO_WORD,
    block_timestamp,
    encode_event_log,
    generate_prices,
    write_denylist_csv,
)
from dfcflow.util import parse_hex, to_hex


def _uses_topic(rule: EventRule, index: int) -> bool:
    locators = (
        rule.actor, rule.on_behalf_of, rule.amount, rule.currency_token,
        rule.recipient, rule.vault_user, rule.vault_proxy, rule.vault_urn,
        rule.owner, rule.spender,
    )
    return any(
        loc is not None and loc.source == "topic" and loc.index == index
        for loc in locators
    )


@dataclass
class FixtureBundle:
    logs: list[RawLog]
    prices: PriceSeries
    denylist: list[tuple[str, str]]  # (address, label)
    end_block: int


@dataclass
class _User:
    eoa: str
    proxy: str | None = None


class _Clock:
    """Monotone (block, log_index) cursor with rng-driven strides."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.block = START_BLOCK
        self.log_index = 0

    def tick(self) -> tuple[int, int]:
        if self.rng.random() < 0.22:
            self.log_index += self.rng.randint(1, 4)
        else:
            self.block += self.rng.randint(300, 2800)
            self.log_index = self.rng.randint(0, 6)
        return self.block, self.log_index


def generate_fixture(
    registry: ContractRegistry,
    seed: int = 42,
    n_steps: int = 470,
) -> FixtureBundle:
    rng = random.Random(seed)
    clock = _Clock(rng)
    logs: list[RawLog] = []

    def new_addr() -> str:
        return to_hex(rng.randbytes(20))

    exchange = new_addr()
    otc_desk = new_addr()
    denylist = [(exchange, "exchange:synthetic"), (otc_desk, "otc:synthetic")]

    rules = registry.rules
    by_kind_protocol: dict[tuple[str, str], list[EventRule]] = {}
    for rule in rules.values():
        by_kind_protocol.setdefault((rule.protocol, rule.kind), []).append(rule)
    for bucket in by_kind_protocol.values():
        bucket.sort(key=lambda r: (to_hex(r.contract), to_hex(r.topic0)))

    def pick(protocol: str, kind: str, currency: str | None = None) -> EventRule:
        candidates = by_kind_protocol[(protocol, kind)]
        if currency is not None:
            candidates = [r for r in candidates if r.currency_fixed in (None, currency)]
        return rng.choice(candidates)

    def emit(rule: EventRule, **fields) -> None:
        block, log_index = clock.tick()
        logs.append(encode_event_log(
            rule, registry,
            block_number=block,
            log_index=log_index,
            tx_hash=rng.randbytes(32),
            **fields,
        ))

    # population: Maker users (some sharing a proxy), multi-protocol EOAs,
    # single-protocol EOAs (their groups stay non-eligible), and per-user
    # side addresses that only ever appear through link pairs
    maker_users = [_User(new_addr(), new_addr()) for _ in range(6)]
    maker_users.append(_User(maker_users[0].eoa, new_addr()))  # second vault, new proxy
    shared_proxy_user = _User(new_addr(), maker_users[1].proxy)  # proxy reuse joins groups
    maker_users.append(shared_proxy_user)
    direct_vault_user = _User(new_addr(), None)  # opens without a proxy: user == proxy
    maker_users.append(direct_vault_user)
    plain_users = [_User(new_addr()) for _ in range(10)]
    mono_users = [(_User(new_addr()), proto) for proto in
                  ("Compound", "Compound", "Compound", "Aave", "Aave", "Uniswap")]
    side_of = {u.eoa: new_addr() for u in plain_users}
    float_links = [new_addr(), new_addr()]

    all_users = maker_users + plain_users
    leveraged_users = maker_users + plain_users[:6]  # the rest never borrow
    currencies = list(registry.currencies)

    vault_rule = by_kind_protocol[("Maker", "vault_open")][0]
    cdp_counter = 1000
    for user in maker_users:
        emit(
            vault_rule,
            user=user.eoa,
            proxy=user.proxy or user.eoa,
            urn=new_addr(),
            raw_topics={3: cdp_counter.to_bytes(32, "big")},
        )
        cdp_counter += 1

    swap_pairs = by_kind_protocol[("Uniswap", "swap")]

    def swap_legs(rule: EventRule) -> tuple[str, str]:
        return registry.tokens[rule.token0], registry.tokens[rule.token1]

    def emit_swap(actor: str, recipient: str | None = None) -> None:
        rule = rng.choice(swap_pairs)
        sym0, sym1 = swap_legs(rule)
        direction = rng.choice(("0to1", "1to0"))
        sent_sym = sym0 if direction == "0to1" else sym1
        recv_sym = sym1 if direction == "0to1" else sym0
        sent = _plausible_amount(rng, sent_sym)
        recv = _convert_across(rng, sent, sent_sym, recv_sym)
        emit(
            rule,
            direction=direction,
            amount_sent=sent,
            amount_received=recv,
            actor=actor,
            recipient=recipient if recipient is not None else actor,
        )

    def lending_actor(user: _User, protocol: str) -> str:
        if protocol == "Maker" and user.proxy is not None:
            return user.proxy
        return user.eoa

    def emit_lending(user: _User, protocol: str, kind: str, currency: str,
                     on_behalf_of: str | None = None) -> None:
        rule = pick(protocol, kind, currency)
        fields = dict(
            actor=lending_actor(user, protocol),
            amount=_plausible_amount(rng, currency),
            currency=currency,
        )
        if on_behalf_of is not None and rule.on_behalf_of is not None:
            fields["on_behalf_of"] = on_behalf_of
        if rule.currency_token is not None and not _uses_topic(rule, 3):
            fields["raw_topics"] = {3: ZERO_WORD}  # referral-style padding
        emit(rule, **fields)

    lenders = ("Aave", "Compound", "Maker")

    def lender_currency(proto: str, *, debt: bool) -> str:
        if proto == "Maker":
            return "DAI" if debt else rng.choice(("WETH", "WBTC", "USDC"))
        return rng.choice(currencies)

    def dfc_cycle():
        user = rng.choice(leveraged_users)
        debt_proto = rng.choice(lenders)
        emit_lending(user, debt_proto, "debt_create", lender_currency(debt_proto, debt=True))
        if rng.random() < 0.8:
            emit_swap(user.eoa)
        deposit_proto = rng.choice([p for p in lenders if p != debt_proto])
        emit_lending(user, deposit_proto, "collateral_deposit",
                     lender_currency(deposit_proto, debt=False))

    def plain_deposit():
        user = rng.choice(all_users)
        proto = rng.choice(lenders)
        emit_lending(user, proto, "collateral_deposit", lender_currency(proto, debt=False))

    def plain_withdraw():
        user = rng.choice(all_users)
        proto = rng.choice(lenders)
        emit_lending(user, proto, "collateral_withdraw", lender_currency(proto, debt=False))

    def plain_repay():
        user = rng.choice(leveraged_users)
        proto = rng.choice(lenders)
        emit_lending(user, proto, "debt_repay", lender_currency(proto, debt=True))

    def repay_on_behalf():
        user = rng.choice(plain_users)
        beneficiary = side_of[user.eoa]
        proto = rng.choice(("Aave", "Compound"))
        emit_lending(user, proto, "debt_repay", rng.choice(currencies), on_behalf_of=beneficiary)

    def denied_repay():
        # beneficiary is a labeled address: the pair is dropped but the
        # event keeps its on-behalf field, so the ledger flags it
        user = rng.choice(plain_users)
        proto = rng.choice(("Aave", "Compound"))
        emit_lending(user, proto, "debt_repay", rng.choice(currencies), on_behalf_of=otc_desk)

    def linking_swap():
        user = rng.choice(plain_users)
        emit_swap(user.eoa, side_of[user.eoa])

    def mono_action():
        user, proto = rng.choice(mono_users)
        if proto == "Uniswap":
            emit_swap(user.eoa)
            return
        kind = rng.choice(("collateral_deposit", "collateral_withdraw", "debt_create"))
        emit_lending(user, proto, kind, lender_currency(proto, debt=kind == "debt_create"))

    def denied_swap():
        emit_swap(rng.choice(all_users).eoa, exchange)

    def plain_swap():
        emit_swap(rng.choice(all_users).eoa)

    def emit_approval(owner: str, spender: str) -> None:
        token = rng.choice(sorted(registry.tokens))
        rule = registry.rules[(token, parse_hex(
            "0x8c5be1e5ebec7d5bd14f71427d1e84f3dd0314c0f7b2291e5b200ac8c7c3b925"
        ))]
        emit(rule, owner=owner, spender=spender, value=rng.randrange(10**24))

    def approval():
        owner = rng.choice(all_users).eoa
        roll = rng.random()
        if roll < 0.2:
            spender = owner  # self-approval, never a pair
        elif roll < 0.4:
            spender = to_hex(sorted(registry.addresses)[rng.randrange(len(registry.addresses))])
        elif roll < 0.55 and owner in side_of:
            spender = side_of[owner]  # mirrors a link pair: overlap material
        else:
            spender = new_addr()
        emit_approval(owner, spender)

    def liquidation():
        bucket = by_kind_protocol.get((rng.choice(lenders), "liquidation"))
        if bucket:
            emit(rng.choice(bucket), min_data_words=2)

    def out_of_scope_deposit():
        # an Aave-style deposit whose reserve is not one of the five
        bucket = [r for r in by_kind_protocol[("Aave", "collateral_deposit")] if r.currency_token]
        if bucket:
            rule = rng.choice(bucket)
            emit(
                rule,
                actor=rng.choice(all_users).eoa,
                amount=Fraction(1),
                currency="WETH",
                currency_token=new_addr(),
                raw_topics={3: ZERO_WORD},
            )

    def degenerate_swap():
        rule = rng.choice(swap_pairs)
        emit(
            rule,
            direction="degenerate",
            amount_sent=Fraction(5),
            amount_received=Fraction(0),
            actor=rng.choice(all_users).eoa,
            recipient=rng.choice(all_users).eoa,
        )

    def noise_log():
        # unregistered contract: must be dropped by the filter stage
        block, log_index = clock.tick()
        logs.append(RawLog(
            block_number=block,
            tx_hash=rng.randbytes(32),
            log_index=log_index,
            contract_address=rng.randbytes(20),
            topics=(rng.randbytes(32),),
            data=rng.randbytes(32),
            timestamp=block_timestamp(block),
        ))

    actions = [
        (dfc_cycle, 16),
        (plain_deposit, 30),
        (plain_withdraw, 12),
        (plain_repay, 8),
        (repay_on_behalf, 4),
        (denied_repay, 1),
        (linking_swap, 3),
        (plain_swap, 12),
        (mono_action, 12),
        (approval, 7),
        (liquidation, 2),
        (out_of_scope_deposit, 1),
        (degenerate_swap, 1),
        (noise_log, 3),
        (denied_swap, 1),
    ]
    funcs = [a for a, _ in actions]
    weights = [w for _, w in actions]
    for _ in range(n_steps):
        rng.choices(funcs, weights=weights, k=1)[0]()

    # scripted epilogue: a deliberate cross-user merge and a pair chain
    # (a,b),(b,c) bridging two eligible groups through a fresh address
    emit_lending(plain_users[0], "Aave", "debt_repay", "USDC",
                 on_behalf_of=plain_users[1].eoa)
    emit_swap(plain_users[2].eoa, float_links[0])
    emit_lending(_User(float_links[0]), "Compound", "debt_repay", "DAI",
                 on_behalf_of=plain_users[3].eoa)
    # guaranteed overlap between link pairs and self-approval pairs
    for user in plain_users[:3]:
        emit_approval(user.eoa, side_of[user.eoa])
        emit_swap(user.eoa, side_of[user.eoa])

    end_block = clock.block
    price_rng = random.Random(seed + 1)
    prices = generate_prices(price_rng, START_TIMESTAMP, block_timestamp(end_block))

    # out-of-range logs exercise the block filter end to end
    low = block_timestamp(START_BLOCK - 1)
    logs.append(RawLog(
        block_number=START_BLOCK - 1,
        tx_hash=rng.randbytes(32),
        log_index=0,
        contract_address=sorted(registry.addresses)[0],
        topics=(min(t for c, t in registry.rules if c == min(registry.addresses)),),
        data=b"\x00" * 64,
        timestamp=low,
    ))
    return FixtureBundle(logs=logs, prices=prices, denylist=denylist, end_block=end_block)


_AMOUNT_SCALES = {
    # (min_units, max_units, unit): amounts land around $1-40M per event
    "WBTC": (50, 2_000, Fraction(1)),
    "WETH": (2_000, 60_000, Fraction(1)),
    "USDT": (500_000, 30_000_000, Fraction(1)),
    "USDC": (500_000, 30_000_000, Fraction(1)),
    "DAI": (500_000, 30_000_000, Fraction(1)),
}

_APPROX_USD = {"WBTC": 9000, "WETH": 210, "USDT": 1, "USDC": 1, "DAI": 1}


def _plausible_amount(rng: random.Random, symbol: str) -> Fraction:
    lo, hi, unit = _AMOUNT_SCALES[symbol]
    cents = rng.randint(lo * 100, hi * 100)
    return Fraction(cents, 100) * unit


def _convert_across(rng: random.Random, amount: Fraction, sent: str, recv: str) -> Fraction:
    usd = amount * _APPROX_USD[sent]
    slip = Fraction(rng.randint(9_800, 10_150), 10_000)
    value = usd * slip / _APPROX_USD[recv]
    # quantize to the receiving token's representable grid
    return Fraction(round(value * 10**6), 10**6)




def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--output", required=True, help="directory for the three files")
    args = parser.parse_args(argv)
    registry = ContractRegistry.from_json_file(ROOT / "config" / "registry.json")
    bundle = generate_fixture(registry, seed=args.seed)
    output = Path(args.output)
    output.mkdir(parents=True, exist_ok=True)
    save_fixture(output / "fixture_logs.jsonl", bundle.logs)
    bundle.prices.to_csv(output / "prices.csv")
    write_denylist_csv(output / "denylist.csv", bundle.denylist)
    print(f"gen_fixture: {len(bundle.logs)} logs through block {bundle.end_block} "
          f"(seed {args.seed}) in {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
