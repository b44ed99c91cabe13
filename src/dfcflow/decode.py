"""Decode filtered raw logs into canonical, currency-normalized events.

Each registry rule names where the acting address, amounts and currency
live inside a log (topic index or data byte offset).  The first time a
run meets a rule, `decode_stream` compiles it into one decoder function,
kept on the registry: the function holds the rule's topic indexes, data
offsets, currency and scale as local values, and reads a log with direct
slices and `int.from_bytes`.  `decode_event` goes through the same
decoders, so there is one decode path.

A decoder checks a log's length once, against the largest topic index
and data end of the rule's reads.  A log too short for some read raises
the `DecodeError` of the first read that does not fit, in the order the
fields are read: the currency token, actor, beneficiary and amount of a
lending event; the four amount words, actor and recipient of a swap; the
addresses of a vault opening or approval, in the order the rule names
them.  A lending event whose currency token is out of scope, and a
degenerate swap, give None whatever the reads after them would find.
(`tests/oracles.py` keeps the read-by-read decoder these match.)

Amounts leave this
module as `int` counts of 1/`util.SCALE` tokens: a token with `decimals`
d has 10**(36 - d) units per base unit, so decoding is exact for every d
up to 18 and an amount in `events.csv` reads back to the same count.
Binary floating point is never used on the accounting path, because the
first-out min/subtraction chains downstream amplify rounding drift.

Logs whose currency (or either swap leg) falls outside the five supported
currencies, and liquidation-signature logs, decode to ``None``
(not relevant) and are only counted, not reported per event.

The decoded records (`CanonicalEvent`, `VaultTriple`, `ApprovalEvent`)
are immutable named tuples, built once per log and compared field by
field.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import DecodeError
from .ingest import RawLog
from .registry import (  # and COLLATERAL_DEPOSIT, which the demos import from here
    APPROVAL, CANONICAL_KINDS, COLLATERAL_DEPOSIT, CURRENCIES, LIQUIDATION, PROTOCOLS, SWAP,
    VAULT_OPEN, ContractRegistry, EventRule, Locator, kind_protocol_error,
)
from .tables import Table
from .util import (
    PLACES, address_cell_error, format_fixed, is_address, parse_amount, to_hex, uint_cell_error,
)

EVENT_CSV_COLUMNS = (
    "block_number",
    "log_index",
    "timestamp",
    "protocol",
    "kind",
    "actor",
    "on_behalf_of",
    "currency_sent_or_single",
    "currency_received",
    "amount_sent_or_single",
    "amount_received",
)


class CanonicalEvent(NamedTuple):
    """A decoded, classified protocol action.

    Non-swap events use `currency`/`amount`; swaps use the four
    sent/received fields.  `on_behalf_of` holds the named beneficiary for
    lending events and the destination address for swaps, and is None
    whenever it coincides with the actor.
    """

    kind: str
    protocol: str
    actor: str
    block_number: int
    log_index: int
    timestamp: int
    currency: str | None = None
    amount: int | None = None
    currency_sent: str | None = None
    currency_received: str | None = None
    amount_sent: int | None = None
    amount_received: int | None = None
    on_behalf_of: str | None = None

    # (block_number, log_index); `CanonicalEvent.order_key.fget` is a sort key
    order_key = property(itemgetter(3, 4))


class VaultTriple(NamedTuple):
    """Maker vault creation: (user, proxy, urn handler) addresses.

    A vault opened directly by an externally-owned address degenerates to
    user == proxy; grouping treats the triple as an address set, so the
    degenerate case is simply a smaller set.
    """

    user: str
    proxy: str
    urn: str

    @property
    def addresses(self) -> frozenset[str]:
        return frozenset((self.user, self.proxy, self.urn))


class ApprovalEvent(NamedTuple):
    token: str
    owner: str
    spender: str
    block_number: int
    log_index: int
    timestamp: int


class DecodeResult:
    """The three output streams of a decode, and counts per kind and per
    reason a log gave no record."""

    def __init__(self):
        self.events: list[CanonicalEvent] = []
        self.vault_triples: list[VaultTriple] = []
        self.approvals: list[ApprovalEvent] = []
        self.stats: dict[str, int] = {}


# A field read, as (in_topic, index, start, stop): an address is the low
# 20 bytes of topic `index` or the 20 bytes at data offset `index`, an
# amount the whole topic or the 32-byte word at the offset.  The read
# needs topic `index` to exist, or `stop` bytes of data.
Field = tuple[bool, int, int, "int | None"]

# a swap's data words: amount0In, amount1In, amount0Out, amount1Out
_SWAP_WORDS = tuple((False, offset, offset, offset + 32) for offset in (0, 32, 64, 96))

_new = tuple.__new__  # a named tuple from all of its fields, without `__new__`'s defaults


def normalize_amount(raw: int, decimals: int) -> int:
    """raw base units / 10**decimals, as a count of 1/SCALE tokens, exactly."""
    if not 0 <= decimals <= 18:
        raise ValueError(f"decimals {decimals} outside [0, 18]")
    if raw < 0:
        raise ValueError("raw amount must be unsigned")
    return raw * 10 ** (PLACES - decimals)


def _field(locator: Locator, length: int) -> Field:
    if locator.source == "topic":
        return True, locator.index, 32 - length, None
    return False, locator.index, locator.index, locator.index + length


def _extent(fields: Sequence[Field]) -> tuple[int, int]:
    """The number of topics and of data bytes a log needs for all of `fields`."""
    return (
        max((index + 1 for in_topic, index, _, _ in fields if in_topic), default=0),
        max((stop for in_topic, _, _, stop in fields if not in_topic), default=0),
    )


def _short_error(log: RawLog, fields: Sequence[Field]) -> DecodeError | None:
    """The error of the first of `fields` that `log` is too short for, or
    None when all of them fit."""
    topics, data = log.topics, log.data
    for in_topic, index, _, stop in fields:
        if in_topic and index >= len(topics):
            message = f"topic index {index} out of bounds ({len(topics)} topics)"
        elif not in_topic and stop > len(data):
            message = f"data field too short: need {stop} bytes, have {len(data)}"
        else:
            continue
        return DecodeError(message, to_hex(log.tx_hash), log.log_index)
    return None


def _net_flows(data: bytes) -> tuple[int, int]:
    """A swap's net flows of token0 and token1 into the pool."""
    return (int.from_bytes(data[:32], "big") - int.from_bytes(data[64:96], "big"),
            int.from_bytes(data[32:64], "big") - int.from_bytes(data[96:128], "big"))


def _nothing(log: RawLog) -> None:
    return None


def _lending_decoder(rule: EventRule, registry: ContractRegistry):
    kind, protocol = rule.kind, rule.protocol
    fields = [actor := _field(rule.actor, 20)]
    at, ai, a0, a1 = actor
    bt = bi = b0 = b1 = None
    if rule.on_behalf_of is not None:
        fields.append(beneficiary := _field(rule.on_behalf_of, 20))
        bt, bi, b0, b1 = beneficiary
    fields.append(amount := _field(rule.amount, 32))
    mt, mi, m0, m1 = amount
    ct = ci = c0 = c1 = scales = None
    if rule.currency_fixed is not None:
        currency = registry.currency(rule.currency_fixed)
        fixed = currency.symbol, normalize_amount(1, currency.decimals)
    else:
        # the currency token is read first, and an out-of-scope one ends the read
        fields.insert(0, token := _field(rule.currency_token, 20))
        ct, ci, c0, c1 = token
        scales = {
            address: (symbol, normalize_amount(1, registry.currencies[symbol].decimals))
            for address, symbol in registry.tokens.items()
        }
    n_topics, n_data = _extent(fields)

    def short(log: RawLog) -> None:
        if (ct is not None and _short_error(log, fields[:1]) is None
                and (log.topics[ci] if ct else log.data)[c0:c1] not in scales):
            return None
        raise _short_error(log, fields)

    def decode(log: RawLog) -> CanonicalEvent | None:
        block_number, _, log_index, _, topics, data, timestamp = log
        if len(topics) < n_topics or len(data) < n_data:
            return short(log)
        if ct is None:
            symbol, scale = fixed
        else:
            currency = scales.get((topics[ci] if ct else data)[c0:c1])
            if currency is None:
                return None
            symbol, scale = currency
        actor = "0x" + (topics[ai] if at else data)[a0:a1].hex()
        on_behalf_of = None
        if bt is not None:
            named = "0x" + (topics[bi] if bt else data)[b0:b1].hex()
            if named != actor:
                on_behalf_of = named
        amount = int.from_bytes((topics[mi] if mt else data)[m0:m1], "big") * scale
        return _new(CanonicalEvent, (
            kind, protocol, actor, block_number, log_index, timestamp, symbol, amount,
            None, None, None, None, on_behalf_of,
        ))

    return decode


def _swap_decoder(rule: EventRule, registry: ContractRegistry):
    protocol = rule.protocol
    leg0 = registry.token_currency(rule.token0)
    leg1 = registry.token_currency(rule.token1)
    if leg0 is None or leg1 is None:
        return _nothing  # a pair leg outside the five currencies
    if leg0.symbol == leg1.symbol:
        message = f"pair {to_hex(rule.contract)} resolves both legs to {leg0.symbol}"

        def same_legs(log: RawLog):
            raise DecodeError(message, to_hex(log.tx_hash), log.log_index)

        return same_legs
    sym0, scale0 = leg0.symbol, normalize_amount(1, leg0.decimals)
    sym1, scale1 = leg1.symbol, normalize_amount(1, leg1.decimals)
    at, ai, a0, a1 = actor = _field(rule.actor, 20)
    rt, ri, r0, r1 = recipient = _field(rule.recipient, 20)
    fields = _SWAP_WORDS + (actor, recipient)
    n_topics, n_data = _extent(fields)

    def short(log: RawLog) -> None:
        if _short_error(log, _SWAP_WORDS) is None:
            net0, net1 = _net_flows(log.data)
            if not (net0 > 0 > net1 or net1 > 0 > net0):
                return None  # degenerate: no address is read
        raise _short_error(log, fields)

    def decode(log: RawLog) -> CanonicalEvent | None:
        block_number, _, log_index, _, topics, data, timestamp = log
        if len(topics) < n_topics or len(data) < n_data:
            return short(log)
        # classify on net pool flows: the user sends the token flowing into
        # the pool and receives the token flowing out
        net0, net1 = _net_flows(data)
        if net0 > 0 > net1:
            legs = sym0, sym1, net0 * scale0, -net1 * scale1
        elif net1 > 0 > net0:
            legs = sym1, sym0, net1 * scale1, -net0 * scale0
        else:
            return None  # degenerate swap, no directed exchange
        actor = "0x" + (topics[ai] if at else data)[a0:a1].hex()
        recipient = "0x" + (topics[ri] if rt else data)[r0:r1].hex()
        return _new(CanonicalEvent, (
            SWAP, protocol, actor, block_number, log_index, timestamp, None, None,
            *legs, recipient if recipient != actor else None,
        ))

    return decode


def _address_decoder(locators: Sequence[Locator], build):
    """A decoder that reads the addresses at `locators` and gives
    `build(log, *addresses)`."""
    fields = [_field(locator, 20) for locator in locators]
    n_topics, n_data = _extent(fields)

    def decode(log: RawLog):
        topics, data = log.topics, log.data
        if len(topics) < n_topics or len(data) < n_data:
            raise _short_error(log, fields)
        return build(log, *["0x" + (topics[index] if in_topic else data)[start:stop].hex()
                            for in_topic, index, start, stop in fields])

    return decode


def _vault_triple(log: RawLog, user: str, proxy: str, urn: str | None = None) -> VaultTriple:
    return VaultTriple(user, proxy, urn or proxy)


def _approval(token: str, log: RawLog, owner: str, spender: str) -> ApprovalEvent:
    return ApprovalEvent(token, owner, spender, log.block_number, log.log_index, log.timestamp)


def _compile(registry: ContractRegistry, key: tuple[bytes, bytes | None]):
    """The decoder of the rule at `key` (contract, topic0), with the kind of
    record it gives and the stats key of a log it gives None for."""
    rule = registry.rules.get(key)
    if rule is None:
        return _nothing, None, "unmatched"
    kind = rule.kind
    if kind == LIQUIDATION:
        return _nothing, kind, "liquidation_excluded"
    if kind == VAULT_OPEN:
        locators = [rule.vault_user, rule.vault_proxy]
        if rule.vault_urn is not None:
            locators.append(rule.vault_urn)
        return _address_decoder(locators, _vault_triple), kind, None
    if kind == APPROVAL:
        approval = partial(_approval, registry.tokens[rule.contract])
        return _address_decoder([rule.owner, rule.spender], approval), kind, None
    build = _swap_decoder if kind == SWAP else _lending_decoder
    return build(rule, registry), kind, "not_relevant"


def _decoder(registry: ContractRegistry, log: RawLog):
    """The compiled decoder entry of `log`'s rule, built on first use."""
    key = log.contract_address, log.topic0
    entry = registry.decoders.get(key)
    if entry is None:
        entry = registry.decoders[key] = _compile(registry, key)
    return entry


def decode_event(log: RawLog, registry: ContractRegistry) -> CanonicalEvent | None:
    """Decode one filtered log; None means not relevant to the canonical
    stream (out-of-scope currency, liquidation, vault bookkeeping, ...)."""
    decode, kind, missed = _decoder(registry, log)
    if missed == "unmatched":
        raise DecodeError(
            "log does not match any registry rule",
            to_hex(log.tx_hash),
            log.log_index,
        )
    if kind == VAULT_OPEN or kind == APPROVAL:
        return None
    return decode(log)


def decode_stream(logs: Sequence[RawLog], registry: ContractRegistry) -> DecodeResult:
    """Decode an ordered filtered log stream.

    Decoding is pure per log; the output streams keep the input order.
    Not-relevant logs are counted in `stats`, never logged per event.
    """
    result = DecodeResult()
    stats = result.stats
    records = dict.fromkeys(CANONICAL_KINDS, result.events)
    records[VAULT_OPEN], records[APPROVAL] = result.vault_triples, result.approvals
    decoders = registry.decoders
    for log in logs:
        topics = log.topics
        entry = decoders.get((log.contract_address, topics[0] if topics else None))
        if entry is None:
            entry = _decoder(registry, log)
        decode, kind, missed = entry
        record = decode(log)
        if record is None:
            stats[missed] = stats.get(missed, 0) + 1
        else:
            records[kind].append(record)
            stats[kind] = stats.get(kind, 0) + 1
    return result


def _event_row(e: CanonicalEvent) -> tuple:
    (kind, protocol, actor, block_number, log_index, timestamp, currency, amount,
     currency_sent, currency_received, amount_sent, amount_received, on_behalf_of) = e
    head = (block_number, log_index, timestamp, protocol, kind, actor, on_behalf_of or "")
    if kind == SWAP:
        return head + (
            currency_sent, currency_received,
            format_fixed(amount_sent), format_fixed(amount_received),
        )
    return head + (currency, "", format_fixed(amount), "")


def _log_position(block_number: str, log_index: str, timestamp: str) -> tuple[int, int, int]:
    if not (block_number.isdigit() and log_index.isdigit() and timestamp.isdigit()
            and (block_number + log_index + timestamp).isascii()):
        raise uint_cell_error(block_number=block_number, log_index=log_index,
                              timestamp=timestamp)
    return int(block_number), int(log_index), int(timestamp)


def _event_from_row(
    block_number, log_index, timestamp, protocol, kind, actor, on_behalf_of,
    currency, currency_received, amount, amount_received,
) -> CanonicalEvent:
    if kind not in CANONICAL_KINDS:
        raise ValueError(f"unknown event kind {kind!r}")
    position = (kind, protocol, actor, *_log_position(block_number, log_index, timestamp))
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    mismatch = kind_protocol_error(kind, protocol)
    if mismatch:
        raise ValueError(f"{protocol} {kind}: {mismatch}")
    if not (is_address(actor) and (not on_behalf_of or is_address(on_behalf_of))):
        raise address_cell_error(actor=actor, on_behalf_of=on_behalf_of)
    on_behalf_of = on_behalf_of or None
    if on_behalf_of == actor:
        # the decoder leaves the cell empty when the two coincide
        raise ValueError(f"on_behalf_of equals actor {actor!r}")
    if currency not in CURRENCIES:
        raise ValueError(f"unknown currency {currency!r}")
    if kind == SWAP:
        if currency_received not in CURRENCIES:
            raise ValueError(f"unknown currency {currency_received!r}")
        if currency_received == currency:  # as the decoder refuses such a pair
            raise ValueError(f"swap sends and receives {currency}")
        return CanonicalEvent(
            *position,
            currency_sent=currency,
            currency_received=currency_received,
            amount_sent=parse_amount("amount_sent", amount),
            amount_received=parse_amount("amount_received", amount_received),
            on_behalf_of=on_behalf_of,
        )
    if currency_received or amount_received:
        raise ValueError(f"a {kind} row has a currency_received or amount_received;"
                         " only a swap has them")
    return CanonicalEvent(
        *position, currency=currency, amount=parse_amount("amount", amount),
        on_behalf_of=on_behalf_of,
    )


def _approval_from_row(block_number, log_index, timestamp, token, owner, spender):
    position = _log_position(block_number, log_index, timestamp)
    if token not in CURRENCIES:
        raise ValueError(f"token {token!r} is not a currency symbol")
    if not (is_address(owner) and is_address(spender)):
        raise address_cell_error(owner=owner, spender=spender)
    return ApprovalEvent(token, owner, spender, *position)


def _vault_from_row(user, proxy, urn):
    if not (is_address(user) and is_address(proxy) and is_address(urn)):
        raise address_cell_error(user=user, proxy=proxy, urn=urn)
    return VaultTriple(user, proxy, urn)


EVENTS = Table(EVENT_CSV_COLUMNS, _event_row, _event_from_row)
VAULTS = Table(("user", "proxy", "urn"), from_row=_vault_from_row)
APPROVALS = Table(
    ("block_number", "log_index", "timestamp", "token", "owner", "spender"),
    lambda a: (a.block_number, a.log_index, a.timestamp, a.token, a.owner, a.spender),
    _approval_from_row,
)

write_events_csv = EVENTS.write
read_events_csv = EVENTS.read
write_vaults_csv = VAULTS.write
read_vaults_csv = VAULTS.read
write_approvals_csv = APPROVALS.write
read_approvals_csv = APPROVALS.read
