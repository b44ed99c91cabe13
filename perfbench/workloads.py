"""Seeded synthetic workloads with the shape of the paper's 2020-21 data.

Every workload covers the same calendar window, block 10,000,000
(2020-05-04) through the end of 2021, so the price file has the same
length at every size; a larger workload adds users and events per block,
not years.  Inputs are built only from dfcflow's public functions
(`synth.encode_event_log`, `synth.generate_prices`, `ingest.save_fixture`,
`PriceSeries.to_csv`, `synth.write_denylist_csv`) against the shipped
registry.

Counts are fixed by construction (users, logs per user script, distinct
blocks), and the seed only chooses addresses, amounts, currencies,
protocols and the interleaving.  Work per run therefore varies little
from seed to seed.

Shapes:

* ``deep``: a dozen users, each in its own eligible group, each running
  hundreds of borrow -> swap -> deposit loops.  Partial swaps carry a
  fractional debt share, so `Fraction` denominators in the ledger grow
  along each user's chain.
* ``rpc``: hundreds of users with a handful of events each (Maker
  proxies, some shared, link pairs to each user's own side address,
  approvals and noise), about 1,400 logs, served by the mock node
  instead of a fixture file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from dfcflow import ingest, synth
from dfcflow.ingest import RawLog
from dfcflow.market import PriceSeries
from dfcflow.registry import ContractRegistry, EventRule
from dfcflow.util import to_hex

WINDOW_START = synth.START_BLOCK
END_OF_2021 = 1_640_995_200  # 2022-01-01T00:00:00Z
WINDOW_END = WINDOW_START + (END_OF_2021 - 1 - synth.START_TIMESTAMP) // synth.SECONDS_PER_BLOCK

LENDERS = ("Aave", "Compound", "Maker")
APPROVAL_TOPIC0 = "0x8c5be1e5ebec7d5bd14f71427d1e84f3dd0314c0f7b2291e5b200ac8c7c3b925"

# whole-token amount ranges in cents, around $0.5-20M per event
AMOUNT_CENTS = {
    "WBTC": (50_00, 2_000_00),
    "WETH": (2_000_00, 60_000_00),
    "USDT": (500_000_00, 20_000_000_00),
    "USDC": (500_000_00, 20_000_000_00),
    "DAI": (500_000_00, 20_000_000_00),
}
APPROX_USD = {"WBTC": 9000, "WETH": 210, "USDT": 1, "USDC": 1, "DAI": 1}

# sizes: the only knobs; see METRICS.md for why each was chosen
DEEP = {"users": 12, "loops": 300, "logs_per_block": 2}
RPC = {"users": 400, "logs_per_block": 1}

WORKLOADS = ("deep", "rpc")


@dataclass
class Workload:
    name: str
    seed: int
    logs: list[RawLog]
    prices: PriceSeries
    denylist: list[tuple[str, str]]
    placed: list[tuple[int, EventRule | None, dict, RawLog]]
    counts: dict[str, int] = field(default_factory=dict)

    def write(self, directory: Path, registry_path: Path) -> Path:
        """Write the fixture, price and deny-list files and a pipeline
        config; return the config path."""
        directory.mkdir(parents=True, exist_ok=True)
        ingest.save_fixture(directory / "logs.jsonl", self.logs)
        self.prices.to_csv(directory / "prices.csv")
        synth.write_denylist_csv(directory / "denylist.csv", self.denylist)
        with open(directory / "prices.csv", "rb") as fh:
            self.counts["price_rows"] = sum(1 for _ in fh) - 1
        config = {
            "registry": str(registry_path),
            "from_block": WINDOW_START,
            "to_block": WINDOW_END,
            "fixture": str(directory / "logs.jsonl"),
            "prices": str(directory / "prices.csv"),
            "denylist": str(directory / "denylist.csv"),
            "output": str(directory / "out"),
        }
        path = directory / "pipeline.json"
        path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        return path


class _Generator:
    """Scripts per user, then one global interleaving over fixed slots."""

    def __init__(self, registry: ContractRegistry, rng: random.Random):
        self.registry = registry
        self.rng = rng
        self.by_kind: dict[tuple[str, str], list[EventRule]] = {}
        for rule in registry.rules.values():
            self.by_kind.setdefault((rule.protocol, rule.kind), []).append(rule)
        for bucket in self.by_kind.values():
            bucket.sort(key=lambda r: (to_hex(r.contract), to_hex(r.topic0)))
        self.swaps = self.by_kind[("Uniswap", "swap")]
        self.approval_rules = [
            registry.rules[(token, bytes.fromhex(APPROVAL_TOPIC0[2:]))]
            for token in sorted(registry.tokens)
        ]
        # per script: list of (rule, fields) in the script's own order
        self.scripts: list[list[tuple[EventRule | None, dict]]] = []
        self.out_of_range: list[tuple[EventRule, dict]] = []
        # every in-range scripted log as (script index, rule, fields, log)
        self.placed: list[tuple[int, EventRule | None, dict, RawLog]] = []
        self.denylist: list[tuple[str, str]] = []

    # --- addresses and amounts ---------------------------------------------

    def addr(self) -> str:
        return to_hex(self.rng.randbytes(20))

    def amount(self, symbol: str) -> Fraction:
        lo, hi = AMOUNT_CENTS[symbol]
        return Fraction(self.rng.randint(lo, hi), 100)

    def convert(self, amount: Fraction, sent: str, received: str) -> Fraction:
        slip = Fraction(self.rng.randint(9_800, 10_150), 10_000)
        value = amount * APPROX_USD[sent] * slip / APPROX_USD[received]
        return Fraction(round(value * 10**6), 10**6)

    def currency_for(self, protocol: str, kind: str) -> str:
        if protocol == "Maker":
            if kind in ("debt_create", "debt_repay"):
                return "DAI"
            return self.rng.choice(("WETH", "WBTC", "USDC"))
        return self.rng.choice(sorted(self.registry.currencies))

    def rule(self, protocol: str, kind: str, currency: str) -> EventRule:
        candidates = [
            r for r in self.by_kind[(protocol, kind)] if r.currency_fixed in (None, currency)
        ]
        return self.rng.choice(candidates)

    # --- events ------------------------------------------------------------

    def lending(self, actor: str, protocol: str, kind: str, currency: str | None = None,
                amount: Fraction | None = None, on_behalf_of: str | None = None):
        currency = currency or self.currency_for(protocol, kind)
        rule = self.rule(protocol, kind, currency)
        fields = {
            "actor": actor,
            "amount": amount if amount is not None else self.amount(currency),
            "currency": currency,
        }
        if on_behalf_of is not None and rule.on_behalf_of is not None:
            fields["on_behalf_of"] = on_behalf_of
        if rule.currency_token is not None and not _uses_topic3(rule):
            fields["raw_topics"] = {3: synth.ZERO_WORD}
        return rule, fields

    def swap(self, actor: str, recipient: str | None = None, sent: str | None = None,
             amount: Fraction | None = None):
        pairs = [
            r for r in self.swaps
            if sent is None or sent in (self.registry.tokens[r.token0],
                                        self.registry.tokens[r.token1])
        ]
        rule = self.rng.choice(pairs)
        sym0, sym1 = self.registry.tokens[rule.token0], self.registry.tokens[rule.token1]
        if sent is None:
            sent = self.rng.choice((sym0, sym1))
        received = sym1 if sent == sym0 else sym0
        amount = amount if amount is not None else self.amount(sent)
        fields = {
            "direction": "0to1" if sent == sym0 else "1to0",
            "amount_sent": amount,
            "amount_received": self.convert(amount, sent, received),
            "actor": actor,
            "recipient": recipient or actor,
        }
        return rule, fields, received, fields["amount_received"]

    def vault(self, user: str, proxy: str, cdp: int):
        rule = self.by_kind[("Maker", "vault_open")][0]
        return rule, {
            "user": user,
            "proxy": proxy,
            "urn": self.addr(),
            "raw_topics": {3: cdp.to_bytes(32, "big")},
        }

    def approval(self, owner: str, spender: str):
        rule = self.rng.choice(self.approval_rules)
        return rule, {"owner": owner, "spender": spender, "value": self.rng.randrange(10**24)}

    # --- layout --------------------------------------------------------------

    def build(self, logs_per_block: int) -> tuple[list[RawLog], int]:
        """Interleave the scripts over distinct blocks of the window,
        keeping each script's order; return the logs and the block count."""
        rng = self.rng
        total = sum(len(s) for s in self.scripts)
        n_blocks = max(1, total // logs_per_block)
        blocks = sorted(rng.sample(range(WINDOW_START, WINDOW_END + 1), n_blocks))
        extra = set(rng.sample(range(n_blocks), total - n_blocks * (total // n_blocks)))
        slots: list[tuple[int, int]] = []
        for i, block in enumerate(blocks):
            log_index = rng.randint(0, 6)
            for _ in range(total // n_blocks + (i in extra)):
                slots.append((block, log_index))
                log_index += rng.randint(1, 4)

        owners = [i for i, script in enumerate(self.scripts) for _ in script]
        rng.shuffle(owners)
        cursor = [0] * len(self.scripts)
        logs: list[RawLog] = []
        for (block, log_index), owner in zip(slots, owners):
            rule, fields = self.scripts[owner][cursor[owner]]
            cursor[owner] += 1
            logs.append(self._encode(rule, fields, block, log_index))
            self.placed.append((owner, rule, fields, logs[-1]))
        for k, (rule, fields) in enumerate(self.out_of_range):
            block = WINDOW_START - 1 - k if k % 2 == 0 else WINDOW_END + 1 + k
            logs.append(self._encode(rule, fields, block, 0))
        return logs, n_blocks

    def _encode(self, rule: EventRule | None, fields: dict, block: int, log_index: int) -> RawLog:
        if rule is None:  # unregistered contract: the filter must drop it
            return RawLog(
                block_number=block,
                tx_hash=self.rng.randbytes(32),
                log_index=log_index,
                contract_address=self.rng.randbytes(20),
                topics=(self.rng.randbytes(32),),
                data=self.rng.randbytes(32),
                timestamp=synth.block_timestamp(block),
            )
        return synth.encode_event_log(
            rule, self.registry,
            block_number=block,
            log_index=log_index,
            tx_hash=self.rng.randbytes(32),
            **fields,
        )


def _uses_topic3(rule: EventRule) -> bool:
    locators = (rule.actor, rule.on_behalf_of, rule.amount, rule.currency_token)
    return any(loc is not None and loc.source == "topic" and loc.index == 3 for loc in locators)


def _deep_scripts(b: _Generator, users: int, loops: int) -> None:
    """Each user: its own group, `loops` borrow -> swap -> deposit loops,
    a withdraw and a repay every fourth loop.  The swap sends 1.2-2.5x the
    borrowed amount, more than the debt held, so the debt share it carries
    is a fraction and balance denominators grow along the chain."""
    cdp = 1000
    for u in range(users):
        eoa = b.addr()
        script: list = []
        proxy = None
        if u % 3 == 0:
            proxy = b.addr()
            script.append(b.vault(eoa, proxy, cdp))
            cdp += 1
        for loop in range(loops):
            debt_proto = b.rng.choice(LENDERS)
            actor = proxy if debt_proto == "Maker" and proxy else eoa
            if debt_proto == "Maker" and not proxy:
                debt_proto = b.rng.choice(("Aave", "Compound"))
            currency = b.currency_for(debt_proto, "debt_create")
            borrowed = b.amount(currency)
            script.append(b.lending(actor, debt_proto, "debt_create", currency, borrowed))
            share = Fraction(b.rng.randint(120, 250), 100)
            rule, fields, received, got = b.swap(eoa, sent=currency, amount=borrowed * share)
            script.append((rule, fields))
            deposit_proto = b.rng.choice([p for p in ("Aave", "Compound") if p != debt_proto])
            deposit = Fraction(round(got * b.rng.randint(20, 70)), 100)
            script.append(b.lending(eoa, deposit_proto, "collateral_deposit", received, deposit))
            if loop % 4 == 3:
                script.append(b.lending(eoa, deposit_proto, "collateral_withdraw", received,
                                        Fraction(round(deposit * 40), 100)))
                script.append(b.lending(actor, debt_proto, "debt_repay", currency,
                                        Fraction(round(borrowed * 30), 100)))
        b.scripts.append(script)


def _short_scripts(b: _Generator, users: int) -> None:
    """Many short scripts.  User i's script is fixed by i mod 20,
    so counts per kind are exact; 30% of users act on Maker through a
    proxy (every sixth proxy is shared with the previous user), and link
    pairs mostly join a user to its own side address."""
    exchange, otc = b.addr(), b.addr()
    b.denylist = [(exchange, "exchange:synthetic"), (otc, "otc:synthetic")]
    contracts = sorted(b.registry.addresses)
    previous_proxy = None
    cdp = 1000
    others: list[str] = []
    for u in range(users):
        kind = u % 20
        eoa, side = b.addr(), b.addr()
        script: list = []
        if kind < 6:
            proxy = previous_proxy if (kind == 5 and previous_proxy) else b.addr()
            previous_proxy = proxy
            script.append(b.vault(eoa, proxy, cdp))
            cdp += 1
            script.append(b.lending(proxy, "Maker", "debt_create"))
            script.append(b.swap(eoa, sent="DAI")[:2])
            script.append(b.lending(eoa, b.rng.choice(("Aave", "Compound")), "collateral_deposit"))
        elif kind < 10:
            debt, dep = b.rng.sample(("Aave", "Compound"), 2)
            script.append(b.lending(eoa, debt, "debt_create"))
            script.append(b.lending(eoa, dep, "collateral_deposit"))
            script.append(b.lending(eoa, dep, "collateral_withdraw"))
        elif kind < 13:
            # link pairs: repay on behalf of the side address, swap to it
            debt = b.rng.choice(("Aave", "Compound"))
            script.append(b.lending(eoa, debt, "debt_create"))
            target = side if (kind != 12 or not others) else b.rng.choice(others)
            script.append(b.lending(eoa, debt, "debt_repay", on_behalf_of=target))
            script.append(b.swap(eoa, recipient=side)[:2])
            script.append(b.lending(side, "Compound" if debt == "Aave" else "Aave",
                                    "collateral_deposit"))
            script.append(b.approval(eoa, side))
        elif kind < 15:
            # denied links: swaps to the exchange, repays for the OTC desk
            script.append(b.swap(eoa, recipient=exchange)[:2])
            script.append(b.lending(eoa, "Aave", "debt_repay", on_behalf_of=otc))
        elif kind < 18:
            # single-protocol users: never eligible
            proto = b.rng.choice(LENDERS[:2])
            script.append(b.lending(eoa, proto, "collateral_deposit"))
            script.append(b.approval(eoa, b.rng.choice((eoa, to_hex(b.rng.choice(contracts))))))
        elif kind == 18:
            script.append(b.swap(eoa)[:2])
            script.append((None, {}))  # unregistered noise
            liquidation = b.rng.choice(b.by_kind[("Compound", "liquidation")])
            script.append((liquidation, {"min_data_words": 2}))
        else:
            # out-of-scope reserve and a degenerate swap; decode drops both
            aave_deposit = [r for r in b.by_kind[("Aave", "collateral_deposit")]
                            if r.currency_token][0]
            script.append((aave_deposit, {"actor": eoa, "amount": Fraction(1),
                                          "currency": "WETH", "currency_token": b.addr(),
                                          "raw_topics": {3: synth.ZERO_WORD}}))
            swap_rule = b.rng.choice(b.swaps)
            script.append((swap_rule, {"direction": "degenerate", "amount_sent": Fraction(5),
                                       "amount_received": Fraction(0), "actor": eoa,
                                       "recipient": side}))
            script.append((None, {}))
            b.out_of_range.append(b.lending(eoa, "Aave", "collateral_deposit"))
        others.append(eoa)
        b.scripts.append(script)


def generate(name: str, seed: int, registry: ContractRegistry) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    gen = _Generator(registry, rng)
    if name == "deep":
        _deep_scripts(gen, DEEP["users"], DEEP["loops"])
        sizes = DEEP
    else:
        sizes = RPC
        _short_scripts(gen, sizes["users"])
    logs, n_blocks = gen.build(sizes["logs_per_block"])
    prices = synth.generate_prices(
        random.Random(f"prices:{seed}"),
        synth.START_TIMESTAMP,
        synth.block_timestamp(WINDOW_END),
    )
    return Workload(
        name=name,
        seed=seed,
        logs=logs,
        prices=prices,
        denylist=gen.denylist,
        placed=gen.placed,
        counts={
            "logs": len(logs),
            "users": sizes["users"],
            "distinct_blocks": n_blocks,
        },
    )
