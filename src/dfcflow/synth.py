"""Synthetic log encoding and price series for test data.

`encode_event_log` is the inverse of decoding: it places semantic fields
(actor, amount, currency token, ...) into topics/data exactly where a
registry rule's locators say they live.  Every registry entry can thus be
exercised with encode-then-decode round trips.  `generate_prices` streams
seeded random walks into the `PriceSeries` constructor, with no
`Fraction` and no list of points.

The generators built on these, tools/gen_fixture.py (the bundled
fixture) and perfbench/workloads.py (the benchmark workloads), live
outside the package.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain

from .cluster import DENYLIST
from .ingest import RawLog
from .market import PriceSeries
from .registry import (
    APPROVAL, DAY, HOUR, LIQUIDATION, SWAP, VAULT_OPEN, ContractRegistry, EventRule, Locator,
)
from .util import PLACES, parse_hex

START_BLOCK = 10_000_000
START_TIMESTAMP = 1_588_598_520  # block 10,000,000 UTC
SECONDS_PER_BLOCK = 13

ZERO_WORD = b"\x00" * 32


def block_timestamp(block_number: int) -> int:
    return START_TIMESTAMP + SECONDS_PER_BLOCK * (block_number - START_BLOCK)


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

    if rule.kind == SWAP:
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
    elif rule.kind == VAULT_OPEN:
        builder.put_address(rule.vault_user, fields["user"])
        builder.put_address(rule.vault_proxy, fields["proxy"])
        if rule.vault_urn is not None:
            builder.put_address(rule.vault_urn, fields["urn"])
    elif rule.kind == APPROVAL:
        builder.put_address(rule.owner, fields["owner"])
        builder.put_address(rule.spender, fields["spender"])
        builder.put_uint(Locator("data", 0), fields.get("value", 0))
    elif rule.kind == LIQUIDATION:
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


def _price_walk(rng, key, timestamps, start_units, step_per_10k, unit_exp):
    """Integer random walk in 10**-unit_exp USD units, as price points."""
    scale = 10 ** (PLACES - unit_exp)
    units = start_units
    for ts in timestamps:
        yield key, ts, units * scale
        units = units * (10_000 + rng.randint(-step_per_10k, step_per_10k)) // 10_000
        units = max(units, 1)


def generate_prices(rng: random.Random, start_ts: int, end_ts: int) -> PriceSeries:
    # the walks draw from `rng` in this order as the series consumes them
    hours = range((start_ts // HOUR - 2) * HOUR, end_ts + 2 * HOUR, HOUR)
    days = range((start_ts // DAY - 1) * DAY, end_ts + 2 * DAY, DAY)
    return PriceSeries(chain(
        _price_walk(rng, "BTC", hours, 91_234_500, 35, 4),   # ~9123.45
        _price_walk(rng, "ETH", hours, 2_101_200, 45, 4),    # ~210.12
        _price_walk(rng, "USDC", hours, 10_001, 3, 4),
        _price_walk(rng, "DAI", hours, 10_090, 4, 4),
        _price_walk(rng, "USDT", days, 10_004, 5, 4),
    ))


write_denylist_csv = DENYLIST.write
