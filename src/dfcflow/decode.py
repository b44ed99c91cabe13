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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import DecodeError
from .ingest import RawLog
from .registry import ContractRegistry, EventRule, Locator
from .tables import Table
from .util import PLACES, format_fixed, parse_fixed, to_hex

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


@dataclass(frozen=True)
class CanonicalEvent:
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

    @property
    def order_key(self) -> tuple[int, int]:
        return (self.block_number, self.log_index)


@dataclass(frozen=True)
class VaultTriple:
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


@dataclass(frozen=True)
class ApprovalEvent:
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


def extract_actor(log: RawLog, locator: Locator) -> str:
    """Resolve an address locator: low 20 bytes of a topic, or the 20 bytes
    at a data byte offset."""
    if locator.source == "topic":
        word = _read_topic(log, locator.index)
        return to_hex(word[12:])
    return to_hex(_read_data(log, locator.index, 20))


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
    token = bytes.fromhex(extract_actor(log, rule.currency_token)[2:])
    return registry.token_currency(token)


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
    in0 = _read_uint(log, Locator("data", 0))
    in1 = _read_uint(log, Locator("data", 32))
    out0 = _read_uint(log, Locator("data", 64))
    out1 = _read_uint(log, Locator("data", 96))
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
    head = (
        e.block_number, e.log_index, e.timestamp, e.protocol, e.kind,
        e.actor, e.on_behalf_of or "",
    )
    if e.kind == SWAP:
        return head + (
            e.currency_sent, e.currency_received,
            format_fixed(e.amount_sent), format_fixed(e.amount_received),
        )
    return head + (e.currency, "", format_fixed(e.amount), "")


def _amount(name: str, text: str) -> int:
    amount = parse_fixed(text)
    if amount < 0:
        raise ValueError(f"negative {name} {text!r}")
    return amount


def _event_from_row(
    block_number, log_index, timestamp, protocol, kind, actor, on_behalf_of,
    currency, currency_received, amount, amount_received,
) -> CanonicalEvent:
    if kind not in CANONICAL_KINDS:
        raise ValueError(f"unknown event kind {kind!r}")
    position = (kind, protocol, actor, int(block_number), int(log_index), int(timestamp))
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


EVENTS = Table(EVENT_CSV_COLUMNS, _event_row, _event_from_row)
VAULTS = Table(("user", "proxy", "urn"), lambda t: (t.user, t.proxy, t.urn), VaultTriple)
APPROVALS = Table(
    ("block_number", "log_index", "timestamp", "token", "owner", "spender"),
    lambda a: (a.block_number, a.log_index, a.timestamp, a.token, a.owner, a.spender),
    lambda block_number, log_index, timestamp, token, owner, spender: ApprovalEvent(
        token, owner, spender, int(block_number), int(log_index), int(timestamp)
    ),
)

write_events_csv = EVENTS.write
read_events_csv = EVENTS.read
write_vaults_csv = VAULTS.write
read_vaults_csv = VAULTS.read
write_approvals_csv = APPROVALS.write
read_approvals_csv = APPROVALS.read
