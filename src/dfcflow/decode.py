"""Decode filtered raw logs into canonical, currency-normalized events.

Each registry rule names where the acting address, amounts and currency
live inside a log (topic index or data byte offset).  Amounts leave this
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

from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import DecodeError
from .ingest import RawLog
from .registry import ContractRegistry, EventRule, Locator
from .tables import Table
from .util import PLACES, format_fixed, parse_fixed, to_hex, uint_cell_error

COLLATERAL_DEPOSIT = "collateral_deposit"
COLLATERAL_WITHDRAW = "collateral_withdraw"
DEBT_CREATE = "debt_create"
DEBT_REPAY = "debt_repay"
SWAP = "swap"

CANONICAL_KINDS = (
    COLLATERAL_DEPOSIT,
    COLLATERAL_WITHDRAW,
    DEBT_CREATE,
    DEBT_REPAY,
    SWAP,
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


@dataclass
class DecodeResult:
    events: list[CanonicalEvent] = field(default_factory=list)
    vault_triples: list[VaultTriple] = field(default_factory=list)
    approvals: list[ApprovalEvent] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)

    def bump(self, key: str) -> None:
        self.stats[key] = self.stats.get(key, 0) + 1


def normalize_amount(raw: int, decimals: int) -> int:
    """raw base units / 10**decimals, as a count of 1/SCALE tokens, exactly."""
    if not 0 <= decimals <= 18:
        raise ValueError(f"decimals {decimals} outside [0, 18]")
    if raw < 0:
        raise ValueError("raw amount must be unsigned")
    return raw * 10 ** (PLACES - decimals)


def _read_topic(log: RawLog, index: int) -> bytes:
    if index >= len(log.topics):
        raise DecodeError(
            f"topic index {index} out of bounds ({len(log.topics)} topics)",
            to_hex(log.tx_hash),
            log.log_index,
        )
    return log.topics[index]


def _read_data(log: RawLog, offset: int, length: int) -> bytes:
    if offset + length > len(log.data):
        raise DecodeError(
            f"data field too short: need {offset + length} bytes, have {len(log.data)}",
            to_hex(log.tx_hash),
            log.log_index,
        )
    return log.data[offset:offset + length]


def _address_bytes(log: RawLog, locator: Locator) -> bytes:
    """Resolve an address locator: low 20 bytes of a topic, or the 20 bytes
    at a data byte offset."""
    if locator.source == "topic":
        return _read_topic(log, locator.index)[12:]
    return _read_data(log, locator.index, 20)


def extract_actor(log: RawLog, locator: Locator) -> str:
    return to_hex(_address_bytes(log, locator))


def _read_uint(log: RawLog, locator: Locator) -> int:
    if locator.source == "topic":
        word = _read_topic(log, locator.index)
    else:
        word = _read_data(log, locator.index, 32)
    return int.from_bytes(word, "big")


def _resolve_currency(log: RawLog, rule: EventRule, registry: ContractRegistry):
    """Return the event's Currency, or None when out of the five-currency
    scope."""
    if rule.currency_fixed is not None:
        return registry.currency(rule.currency_fixed)
    return registry.token_currency(_address_bytes(log, rule.currency_token))


# a swap's data words: amount0In, amount1In, amount0Out, amount1Out
_SWAP_IN0 = Locator("data", 0)
_SWAP_IN1 = Locator("data", 32)
_SWAP_OUT0 = Locator("data", 64)
_SWAP_OUT1 = Locator("data", 96)


def _decode_swap(log: RawLog, rule: EventRule, registry: ContractRegistry):
    sent_cur = registry.token_currency(rule.token0)
    recv_cur = registry.token_currency(rule.token1)
    if sent_cur is None or recv_cur is None:
        return None  # a pair leg outside the five currencies
    if sent_cur.symbol == recv_cur.symbol:
        raise DecodeError(
            f"pair {to_hex(rule.contract)} resolves both legs to {sent_cur.symbol}",
            to_hex(log.tx_hash),
            log.log_index,
        )
    in0 = _read_uint(log, _SWAP_IN0)
    in1 = _read_uint(log, _SWAP_IN1)
    out0 = _read_uint(log, _SWAP_OUT0)
    out1 = _read_uint(log, _SWAP_OUT1)
    # classify on net pool flows: the user sends the token flowing into
    # the pool and receives the token flowing out
    net0 = in0 - out0
    net1 = in1 - out1
    if net0 > 0 and net1 < 0:
        sent_amt, recv_amt = net0, -net1
    elif net1 > 0 and net0 < 0:
        sent_cur, recv_cur = recv_cur, sent_cur
        sent_amt, recv_amt = net1, -net0
    else:
        return None  # degenerate swap, no directed exchange
    actor = extract_actor(log, rule.actor)
    recipient = extract_actor(log, rule.recipient)
    return CanonicalEvent(
        kind=SWAP,
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


def decode_event(log: RawLog, registry: ContractRegistry) -> CanonicalEvent | None:
    """Decode one filtered log; None means not relevant to the canonical
    stream (out-of-scope currency, liquidation, vault bookkeeping, ...)."""
    rule = registry.rule_for(log.contract_address, log.topic0)
    if rule is None:
        raise DecodeError(
            "log does not match any registry rule",
            to_hex(log.tx_hash),
            log.log_index,
        )
    return _decode_matched(log, rule, registry)


def _decode_matched(log: RawLog, rule: EventRule, registry: ContractRegistry):
    if rule.kind in ("liquidation", "vault_open", "approval"):
        return None
    if rule.kind == SWAP:
        return _decode_swap(log, rule, registry)

    currency = _resolve_currency(log, rule, registry)
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


def decode_vault_open(log: RawLog, rule: EventRule) -> VaultTriple:
    user = extract_actor(log, rule.vault_user)
    proxy = extract_actor(log, rule.vault_proxy)
    urn = extract_actor(log, rule.vault_urn) if rule.vault_urn else proxy
    return VaultTriple(user=user, proxy=proxy, urn=urn)


def decode_approval(log: RawLog, rule: EventRule, registry: ContractRegistry) -> ApprovalEvent:
    return ApprovalEvent(
        token=registry.tokens[rule.contract],
        owner=extract_actor(log, rule.owner),
        spender=extract_actor(log, rule.spender),
        block_number=log.block_number,
        log_index=log.log_index,
        timestamp=log.timestamp,
    )


def decode_stream(logs: Sequence[RawLog], registry: ContractRegistry) -> DecodeResult:
    """Decode an ordered filtered log stream.

    Decoding is pure per log; the output streams keep the input order.
    Not-relevant logs are counted in `stats`, never logged per event.
    """
    result = DecodeResult()
    for log in logs:
        rule = registry.rule_for(log.contract_address, log.topic0)
        if rule is None:
            result.bump("unmatched")
            continue
        if rule.kind == "vault_open":
            result.vault_triples.append(decode_vault_open(log, rule))
            result.bump("vault_open")
        elif rule.kind == "approval":
            result.approvals.append(decode_approval(log, rule, registry))
            result.bump("approval")
        else:
            event = _decode_matched(log, rule, registry)
            if event is None:
                key = "liquidation_excluded" if rule.kind == "liquidation" else "not_relevant"
                result.bump(key)
            else:
                result.events.append(event)
                result.bump(event.kind)
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


def _amount(name: str, text: str) -> int:
    amount = parse_fixed(text)
    if amount < 0:
        raise ValueError(f"negative {name} {text!r}")
    return amount


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
    on_behalf_of = on_behalf_of or None
    if kind == SWAP:
        return CanonicalEvent(
            *position,
            currency_sent=currency,
            currency_received=currency_received,
            amount_sent=_amount("amount_sent", amount),
            amount_received=_amount("amount_received", amount_received),
            on_behalf_of=on_behalf_of,
        )
    return CanonicalEvent(
        *position, currency=currency, amount=_amount("amount", amount),
        on_behalf_of=on_behalf_of,
    )


def _approval_from_row(block_number, log_index, timestamp, token, owner, spender):
    return ApprovalEvent(token, owner, spender,
                         *_log_position(block_number, log_index, timestamp))


EVENTS = Table(EVENT_CSV_COLUMNS, _event_row, _event_from_row)
VAULTS = Table(("user", "proxy", "urn"), from_row=VaultTriple)
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
