"""Synthetic log encoding and deterministic test-data generation.

`encode_event_log` is the inverse of decoding: it places semantic fields
(actor, amount, currency token, ...) into topics/data exactly where a
registry rule's locators say they live.  Every registry entry can thus be
exercised with encode-then-decode round trips.

`generate_fixture` builds the bundled desk-scale dataset: a few dozen
synthetic users acting out borrow -> swap -> deposit cycles across the
four protocols over roughly three months of blocks, plus vault openings,
on-behalf repayments, approvals, liquidations and out-of-scope noise.
Everything is driven by one seeded RNG, so the same seed always produces
byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cluster import DENYLIST
from .ingest import RawLog
from .market import DAY, HOUR, PriceSeries
from .registry import ContractRegistry, EventRule, Locator
from .util import parse_hex, to_hex

START_BLOCK = 10_000_000
START_TIMESTAMP = 1_588_598_520  # block 10,000,000 UTC
SECONDS_PER_BLOCK = 13

ZERO_WORD = b"\x00" * 32


def block_timestamp(block_number: int) -> int:
    return START_TIMESTAMP + SECONDS_PER_BLOCK * (block_number - START_BLOCK)


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


def token_address_for(registry: ContractRegistry, symbol: str) -> bytes:
    for addr in sorted(registry.tokens):
        if registry.tokens[addr] == symbol:
            return addr
    raise KeyError(f"no token address for {symbol}")


def _addr_bytes(value: str | bytes) -> bytes:
    return value if isinstance(value, bytes) else parse_hex(value, expected_bytes=20)


def _to_raw(amount: Fraction, decimals: int) -> int:
    raw = amount * 10**decimals
    if raw.denominator != 1:
        raise ValueError(f"amount {amount} not representable with {decimals} decimals")
    return raw.numerator


class _LogBuilder:
    def __init__(self, topic0: bytes):
        self.topics: dict[int, bytes] = {0: topic0}
        self.data = bytearray()

    def _ensure_data(self, size: int) -> None:
        if len(self.data) < size:
            self.data.extend(b"\x00" * (size - len(self.data)))

    def put_address(self, locator: Locator, value: str | bytes) -> None:
        raw = _addr_bytes(value)
        if locator.source == "topic":
            self.topics[locator.index] = ZERO_WORD[:12] + raw
        else:
            self._ensure_data(locator.index + 20)
            self.data[locator.index:locator.index + 20] = raw

    def put_uint(self, locator: Locator, value: int) -> None:
        word = value.to_bytes(32, "big")
        if locator.source == "topic":
            self.topics[locator.index] = word
        else:
            self._ensure_data(locator.index + 32)
            self.data[locator.index:locator.index + 32] = word

    def finish(self, raw_topics: dict[int, bytes] | None = None) -> tuple[tuple[bytes, ...], bytes]:
        if raw_topics:
            self.topics.update(raw_topics)
        top = max(self.topics)
        topics = tuple(self.topics.get(i, ZERO_WORD) for i in range(top + 1))
        return topics, bytes(self.data)


def encode_event_log(
    rule: EventRule,
    registry: ContractRegistry,
    *,
    block_number: int,
    log_index: int,
    tx_hash: bytes,
    timestamp: int | None = None,
    raw_topics: dict[int, bytes] | None = None,
    min_data_words: int = 0,
    **fields,
) -> RawLog:
    """Build a raw log that decodes back to the given semantic fields.

    Lending kinds take actor, amount (token units), optionally
    on_behalf_of and currency_token (an explicit token address, e.g. to
    synthesize an out-of-scope reserve).  Swaps take actor, recipient,
    direction ("0to1"/"1to0"), amount_sent, amount_received.  Vault opens
    take user/proxy/urn; approvals take owner/spender and optional value.
    """
    builder = _LogBuilder(rule.topic0)

    if rule.kind == "swap":
        cur0 = registry.token_currency(rule.token0)
        cur1 = registry.token_currency(rule.token1)
        dec0 = cur0.decimals if cur0 else 18
        dec1 = cur1.decimals if cur1 else 18
        if fields["direction"] == "0to1":
            sent_raw = _to_raw(fields["amount_sent"], dec0)
            recv_raw = _to_raw(fields["amount_received"], dec1)
            in0, in1, out0, out1 = sent_raw, 0, 0, recv_raw
        elif fields["direction"] == "1to0":
            sent_raw = _to_raw(fields["amount_sent"], dec1)
            recv_raw = _to_raw(fields["amount_received"], dec0)
            in0, in1, out0, out1 = 0, sent_raw, recv_raw, 0
        else:  # degenerate on purpose
            in0 = in1 = _to_raw(fields["amount_sent"], dec0)
            out0 = out1 = 0
        builder.put_uint(Locator("data", 0), in0)
        builder.put_uint(Locator("data", 32), in1)
        builder.put_uint(Locator("data", 64), out0)
        builder.put_uint(Locator("data", 96), out1)
        builder.put_address(rule.actor, fields["actor"])
        builder.put_address(rule.recipient, fields["recipient"])
    elif rule.kind == "vault_open":
        builder.put_address(rule.vault_user, fields["user"])
        builder.put_address(rule.vault_proxy, fields["proxy"])
        if rule.vault_urn is not None:
            builder.put_address(rule.vault_urn, fields["urn"])
    elif rule.kind == "approval":
        builder.put_address(rule.owner, fields["owner"])
        builder.put_address(rule.spender, fields["spender"])
        builder.put_uint(Locator("data", 0), fields.get("value", 0))
    elif rule.kind == "liquidation":
        if rule.actor is not None and "actor" in fields:
            builder.put_address(rule.actor, fields["actor"])
    else:  # lending kinds
        builder.put_address(rule.actor, fields["actor"])
        if rule.on_behalf_of is not None:
            builder.put_address(rule.on_behalf_of, fields.get("on_behalf_of", fields["actor"]))
        if rule.currency_token is not None:
            token = fields.get("currency_token")
            if token is None:
                token = token_address_for(registry, fields["currency"])
            builder.put_address(rule.currency_token, token)
            symbol = registry.tokens.get(_addr_bytes(token))
            decimals = registry.currencies[symbol].decimals if symbol else 18
        else:
            decimals = registry.currency(rule.currency_fixed).decimals
        builder.put_uint(rule.amount, _to_raw(fields["amount"], decimals))

    if min_data_words:
        builder._ensure_data(32 * min_data_words)
    topics, data = builder.finish(raw_topics)
    return RawLog(
        block_number=block_number,
        tx_hash=tx_hash,
        log_index=log_index,
        contract_address=rule.contract,
        topics=topics,
        data=data,
        timestamp=timestamp if timestamp is not None else block_timestamp(block_number),
    )


# --- bundled fixture ----------------------------------------------------------

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


def _price_walk(rng, start_units, n, step_per_10k, unit_exp):
    """Integer random walk in 10**-unit_exp USD units; exact decimal strings."""
    units = start_units
    out = []
    for _ in range(n):
        out.append(Fraction(units, 10**unit_exp))
        units = units * (10_000 + rng.randint(-step_per_10k, step_per_10k)) // 10_000
        units = max(units, 1)
    return out


def generate_prices(rng: random.Random, start_ts: int, end_ts: int) -> PriceSeries:
    series = PriceSeries()
    hour_start = (start_ts // HOUR - 2) * HOUR
    hours = range(hour_start, end_ts + 2 * HOUR, HOUR)
    walks = {
        "BTC": _price_walk(rng, 91_234_500, len(hours), 35, 4),   # ~9123.45
        "ETH": _price_walk(rng, 2_101_200, len(hours), 45, 4),    # ~210.12
        "USDC": _price_walk(rng, 10_001, len(hours), 3, 4),
        "DAI": _price_walk(rng, 10_090, len(hours), 4, 4),
    }
    for key, walk in walks.items():
        for ts, price in zip(hours, walk):
            series.add_point(key, ts, price)
    day_start = (start_ts // DAY - 1) * DAY
    days = range(day_start, end_ts + 2 * DAY, DAY)
    for ts, price in zip(days, _price_walk(rng, 10_004, len(days), 5, 4)):
        series.add_point("USDT", ts, price)
    return series


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
        topics=(sorted(registry.topics_for(sorted(registry.addresses)[0]))[0],),
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


write_denylist_csv = DENYLIST.write
