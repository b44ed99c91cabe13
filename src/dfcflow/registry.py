"""Contract registry: which contracts, events and field layouts to decode.

The registry is configuration, not code.  It is loaded from a JSON document
(see docs/registry.md for the schema and config/registry.json for the
shipped mainnet set) and drives log filtering, event decoding and actor
extraction.  Adding a protocol version means editing the JSON, not this
module.

This module is also the one home of the pipeline's vocabulary, which
every stage imports: the protocols, the currencies, the price keys with
their sampling granularity and the kinds of rule.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError
from .util import parse_hex

PROTOCOLS = ("Aave", "Compound", "Maker", "Uniswap")
CURRENCIES = ("WBTC", "WETH", "USDT", "USDC", "DAI")

HOUR = 3600
DAY = 86400
# each price key's declared sampling granularity, in seconds
GRANULARITY = {"BTC": HOUR, "ETH": HOUR, "USDC": HOUR, "DAI": HOUR, "USDT": DAY}
PRICE_KEYS = tuple(GRANULARITY)

# the kinds of registry rule; the five canonical kinds are the events
# decode writes to events.csv
COLLATERAL_DEPOSIT = "collateral_deposit"
COLLATERAL_WITHDRAW = "collateral_withdraw"
DEBT_CREATE = "debt_create"
DEBT_REPAY = "debt_repay"
SWAP = "swap"
LIQUIDATION = "liquidation"
VAULT_OPEN = "vault_open"
APPROVAL = "approval"

LENDING_KINDS = (COLLATERAL_DEPOSIT, COLLATERAL_WITHDRAW, DEBT_CREATE, DEBT_REPAY)
CANONICAL_KINDS = LENDING_KINDS + (SWAP,)
KINDS = CANONICAL_KINDS + (LIQUIDATION, VAULT_OPEN, APPROVAL)


def kind_protocol_error(kind: str, protocol: str) -> str | None:
    """Why a rule, event or flow of `kind` cannot belong to `protocol`, or
    None: the one rule the registry and every checkpoint reader apply."""
    if kind == SWAP and protocol != "Uniswap":
        return "swap events belong to Uniswap only"
    if kind == VAULT_OPEN and protocol != "Maker":
        return "vault_open events belong to Maker only"
    if kind in LENDING_KINDS and protocol == "Uniswap":
        return "lending events cannot belong to Uniswap"
    return None


class Currency(NamedTuple):
    symbol: str
    decimals: int
    price_key: str


class Locator(NamedTuple):
    """Where a field lives in a log: a topic index or a data byte offset.

    Address reads take 20 bytes at the offset (or the low 20 bytes of the
    topic); amount reads take a full 32-byte big-endian word.
    """

    source: str  # "topic" | "data"
    index: int

    @classmethod
    def from_json(cls, obj, *, where: str) -> "Locator":
        if not isinstance(obj, dict) or len(obj) != 1:
            raise ConfigError(f"{where}: locator must be {{\"topic\": i}} or {{\"data\": offset}}")
        (source, index), = obj.items()
        if source not in ("topic", "data") or type(index) is not int or index < 0:
            raise ConfigError(f"{where}: bad locator {obj!r}")
        if source == "topic" and index > 3:
            raise ConfigError(f"{where}: topic index {index} out of range 0..3")
        return cls(source, index)


class EventRule(NamedTuple):
    protocol: str
    contract: bytes
    topic0: bytes
    signature: str
    kind: str
    actor: Locator | None = None
    on_behalf_of: Locator | None = None
    amount: Locator | None = None
    currency_fixed: str | None = None
    currency_token: Locator | None = None
    # swap-only
    recipient: Locator | None = None
    token0: bytes | None = None
    token1: bytes | None = None
    # vault_open-only
    vault_user: Locator | None = None
    vault_proxy: Locator | None = None
    vault_urn: Locator | None = None
    # approval-only
    owner: Locator | None = None
    spender: Locator | None = None


class ContractRegistry:
    """The parsed registry.  Two registries are equal when their tables
    are; `decoders` is a cache and takes no part."""

    def __init__(
        self,
        currencies: dict[str, Currency],
        tokens: dict[bytes, str],  # token address -> currency symbol
        rules: dict[tuple[bytes, bytes], EventRule],  # (contract, topic0) -> rule
    ):
        self.currencies = currencies
        self.tokens = tokens
        self.rules = rules
        # (contract, topic0) -> compiled decoder, built by `dfcflow.decode` on first use
        self.decoders: dict = {}

    def __eq__(self, other):
        if not isinstance(other, ContractRegistry):
            return NotImplemented
        return ((self.currencies, self.tokens, self.rules)
                == (other.currencies, other.tokens, other.rules))

    @property
    def addresses(self) -> frozenset[bytes]:
        return frozenset(contract for contract, _ in self.rules)

    @property
    def all_topic0(self) -> frozenset[bytes]:
        return frozenset(t for _, t in self.rules)

    def token_currency(self, token: bytes) -> Currency | None:
        symbol = self.tokens.get(token)
        return self.currencies[symbol] if symbol else None

    def currency(self, symbol: str) -> Currency:
        try:
            return self.currencies[symbol]
        except KeyError:
            raise ConfigError(f"currency {symbol!r} not defined in registry") from None

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ContractRegistry":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read registry {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"registry {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ContractRegistry":
        doc = _object(doc, where="registry")
        currencies = _parse_currencies(doc.get("currencies"))
        tokens = _parse_tokens(doc.get("tokens"), currencies)

        rules: dict[tuple[bytes, bytes], EventRule] = {}
        contracts: set[bytes] = set()
        pdocs = _object(doc.get("protocols"), where="protocols", optional=True)
        for protocol, pdoc in pdocs.items():
            if protocol not in PROTOCOLS:
                raise ConfigError(f"unknown protocol {protocol!r}")
            pdoc = _object(pdoc, where=f"protocols.{protocol}")
            cdocs = _object(pdoc.get("contracts"), where=f"protocols.{protocol}.contracts",
                            optional=True)
            for addr_hex, cdoc in cdocs.items():
                contract = _addr(addr_hex, where=f"{protocol} contract")
                if contract in contracts:
                    raise ConfigError(f"contract {addr_hex} listed twice")
                contracts.add(contract)
                where = f"{protocol} contract {addr_hex}"
                events = _object(cdoc, where=where).get("events", [])
                if not isinstance(events, list):
                    raise ConfigError(f"{where}: events must be a JSON array")
                for i, edoc in enumerate(events):
                    edoc = _object(edoc, where=f"{where} event {i}")
                    rule = _parse_event_rule(protocol, contract, edoc, currencies)
                    key = (contract, rule.topic0)
                    if key in rules:
                        raise ConfigError(
                            f"duplicate rule for {addr_hex} topic {edoc.get('topic0')}"
                        )
                    rules[key] = rule

        for rule in _approval_rules(doc.get("approvals"), tokens):
            key = (rule.contract, rule.topic0)
            if key in rules:
                raise ConfigError("approval rule collides with a protocol rule")
            rules[key] = rule

        return cls(currencies=currencies, tokens=tokens, rules=rules)


def _object(obj, *, where: str, optional: bool = False) -> dict:
    """`obj`, which must be a JSON object; an `optional` one may be absent
    and then reads as empty."""
    if optional and obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {json.dumps(obj, default=repr):.40}")
    return obj


def _addr(value, *, where: str) -> bytes:
    try:
        return parse_hex(value, expected_bytes=20)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _topic(value, *, where: str) -> bytes:
    try:
        return parse_hex(value, expected_bytes=32)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_currencies(obj) -> dict[str, Currency]:
    if not _object(obj, where="currencies", optional=True):
        raise ConfigError("registry is missing the currencies table")
    out = {}
    for symbol, cdoc in obj.items():
        if symbol not in CURRENCIES:
            raise ConfigError(f"currency {symbol!r} is outside the supported set")
        cdoc = _object(cdoc, where=f"currencies.{symbol}")
        decimals = cdoc.get("decimals")
        price_key = cdoc.get("price_key")
        if type(decimals) is not int or not 0 <= decimals <= 18:  # not true/false
            raise ConfigError(f"{symbol}: decimals must be an integer in [0, 18]")
        if price_key not in PRICE_KEYS:
            raise ConfigError(f"{symbol}: unknown price key {price_key!r}")
        out[symbol] = Currency(symbol, decimals, price_key)
    return out


def _parse_tokens(obj, currencies) -> dict[bytes, str]:
    out = {}
    for addr_hex, symbol in _object(obj, where="tokens", optional=True).items():
        if not isinstance(symbol, str) or symbol not in currencies:
            raise ConfigError(f"token {addr_hex} maps to undefined currency {symbol!r}")
        token = _addr(addr_hex, where="token")
        if token in out:
            raise ConfigError(f"token {addr_hex} listed twice")
        out[token] = symbol
    return out


def _opt_locator(edoc, key, *, where) -> Locator | None:
    obj = edoc.get(key)
    return Locator.from_json(obj, where=f"{where}.{key}") if obj is not None else None


def _req_locator(edoc, key, *, where) -> Locator:
    loc = _opt_locator(edoc, key, where=where)
    if loc is None:
        raise ConfigError(f"{where}: missing required locator {key!r}")
    return loc


def _parse_event_rule(protocol, contract, edoc, currencies) -> EventRule:
    signature = edoc.get("signature", "")
    where = f"{protocol}/{signature or '<unnamed event>'}"
    kind = edoc.get("kind")
    if kind not in KINDS or kind == APPROVAL:
        raise ConfigError(f"{where}: unknown event kind {kind!r}")
    topic0 = _topic(edoc.get("topic0"), where=where)
    mismatch = kind_protocol_error(kind, protocol)
    if mismatch:
        raise ConfigError(f"{where}: {mismatch}")

    base = dict(
        protocol=protocol,
        contract=contract,
        topic0=topic0,
        signature=signature,
        kind=kind,
    )

    if kind == SWAP:
        token0 = _addr(edoc.get("token0"), where=f"{where}.token0")
        token1 = _addr(edoc.get("token1"), where=f"{where}.token1")
        if token0 == token1:
            raise ConfigError(f"{where}: token0 and token1 must differ")
        return EventRule(
            **base,
            actor=_req_locator(edoc, "actor", where=where),
            recipient=_req_locator(edoc, "recipient", where=where),
            token0=token0,
            token1=token1,
        )

    if kind == VAULT_OPEN:
        return EventRule(
            **base,
            vault_user=_req_locator(edoc, "user", where=where),
            vault_proxy=_req_locator(edoc, "proxy", where=where),
            vault_urn=_opt_locator(edoc, "urn", where=where),
        )

    if kind == LIQUIDATION:
        return EventRule(**base, actor=_opt_locator(edoc, "actor", where=where))

    # lending kinds
    currency = edoc.get("currency")
    if not isinstance(currency, dict):
        raise ConfigError(f"{where}: missing currency rule")
    fixed = currency.get("fixed")
    token_loc = currency.get("token")
    if (fixed is None) == (token_loc is None):
        raise ConfigError(f"{where}: currency rule needs exactly one of fixed/token")
    if fixed is not None and (not isinstance(fixed, str) or fixed not in currencies):
        raise ConfigError(f"{where}: fixed currency {fixed!r} not in currency table")
    return EventRule(
        **base,
        actor=_req_locator(edoc, "actor", where=where),
        on_behalf_of=_opt_locator(edoc, "on_behalf_of", where=where),
        amount=_req_locator(edoc, "amount", where=where),
        currency_fixed=fixed,
        currency_token=(
            Locator.from_json(token_loc, where=f"{where}.currency.token")
            if token_loc is not None
            else None
        ),
    )


def _approval_rules(obj, tokens) -> list[EventRule]:
    where = "approvals"
    if not _object(obj, where=where, optional=True):
        return []
    topic0 = _topic(obj.get("topic0"), where=where)
    signature = obj.get("signature", "")
    owner = Locator.from_json(obj.get("owner"), where=f"{where}.owner")
    spender = Locator.from_json(obj.get("spender"), where=f"{where}.spender")
    return [
        EventRule(
            protocol="ERC20",
            contract=token,
            topic0=topic0,
            signature=signature,
            kind=APPROVAL,
            owner=owner,
            spender=spender,
        )
        for token in tokens
    ]
