import copy
import json
import pickle

import pytest

from dfcflow import decode, ingest
from dfcflow.cli import main
from dfcflow.errors import ConfigError
from dfcflow.registry import ContractRegistry, CURRENCIES, PROTOCOLS

from tests.conftest import DATA_DIR, REGISTRY_PATH, topics_for
from tests.test_cli import write_config

POOL = "0x" + "aa" * 20
TOKEN = "0x" + "bb" * 20
TOPIC = "0x" + "11" * 32


def minimal_doc():
    return {
        "currencies": {
            "DAI": {"decimals": 18, "price_key": "DAI"},
            "WETH": {"decimals": 18, "price_key": "ETH"},
        },
        "tokens": {TOKEN: "DAI"},
        "protocols": {
            "Aave": {
                "contracts": {
                    POOL: {
                        "events": [{
                            "signature": "Borrow(...)",
                            "topic0": TOPIC,
                            "kind": "debt_create",
                            "actor": {"topic": 1},
                            "amount": {"data": 0},
                            "currency": {"fixed": "DAI"},
                        }],
                    },
                },
            },
        },
    }


def test_shipped_registry_satisfies_invariants():
    registry = ContractRegistry.from_json_file(REGISTRY_PATH)
    assert set(registry.currencies) == set(CURRENCIES)
    for (contract, topic0), rule in registry.rules.items():
        assert rule.contract == contract
        assert rule.topic0 == topic0
        if rule.kind not in ("liquidation", "vault_open", "approval"):
            assert rule.actor is not None
        if rule.kind == "swap":
            assert rule.protocol == "Uniswap"
        elif rule.kind in ("collateral_deposit", "collateral_withdraw",
                           "debt_create", "debt_repay"):
            assert rule.protocol in ("Aave", "Compound", "Maker")
    for rule in registry.rules.values():
        assert rule.protocol in PROTOCOLS or rule.kind == "approval"
    # every token resolves to a defined currency with a valid price key
    for token, symbol in registry.tokens.items():
        currency = registry.currencies[symbol]
        assert 0 <= currency.decimals <= 18


def test_shipped_registry_signature_strings_are_documented():
    with open(REGISTRY_PATH, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for protocol in doc["protocols"].values():
        for contract in protocol["contracts"].values():
            for event in contract["events"]:
                assert event["signature"], "topic0 constants must carry signatures"


def test_shipped_registry_topics_hash_their_signatures():
    # tools/keccak256.py derived the constants; Maker's DSNote join/exit
    # logs carry the function selector, left-aligned, instead of an event topic
    from tools.keccak256 import event_topic, selector_topic

    with open(REGISTRY_PATH, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    events = [(protocol, event) for protocol, pdoc in doc["protocols"].items()
              for cdoc in pdoc["contracts"].values() for event in cdoc["events"]]
    assert len(events) == 46
    for protocol, event in events + [("ERC20", doc["approvals"])]:
        signature = event["signature"]
        dsnote = protocol == "Maker" and signature.startswith(("join(", "exit("))
        topic = (selector_topic if dsnote else event_topic)(signature)
        assert event["topic0"] == topic, signature


def test_minimal_doc_loads():
    registry = ContractRegistry.from_dict(minimal_doc())
    assert len(registry.rules) == 1  # no approvals section, so just the borrow rule
    assert registry.currency("DAI").decimals == 18


def test_registry_equality_ignores_decoders_and_survives_pickle():
    registry = ContractRegistry.from_json_file(REGISTRY_PATH)
    assert pickle.loads(pickle.dumps(registry, pickle.HIGHEST_PROTOCOL)) == registry
    logs = ingest.load_fixture(DATA_DIR / "fixture_logs.jsonl")[:50]
    decode.decode_stream(ingest.filter_logs(logs, registry, ingest.BlockRange(0, 10**9)),
                         registry)
    assert registry.decoders  # filled by the decode
    assert registry == ContractRegistry.from_json_file(REGISTRY_PATH)
    assert registry != ContractRegistry.from_dict(minimal_doc())


def reject(mutate, match=None):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=match):
        ContractRegistry.from_dict(doc)


def test_unknown_protocol_rejected():
    def mutate(doc):
        doc["protocols"]["Sushi"] = doc["protocols"].pop("Aave")
    reject(mutate, match="unknown protocol")


def test_unknown_currency_symbol_rejected():
    def mutate(doc):
        doc["currencies"]["DOGE"] = {"decimals": 8, "price_key": "DAI"}
    reject(mutate, match="outside the supported set")


def test_decimals_out_of_range_rejected():
    def mutate(doc):
        doc["currencies"]["DAI"]["decimals"] = 19
    reject(mutate, match="decimals")


def test_bad_price_key_rejected():
    def mutate(doc):
        doc["currencies"]["DAI"]["price_key"] = "EUR"
    reject(mutate, match="price key")


def test_token_mapping_to_undefined_currency_rejected():
    def mutate(doc):
        doc["tokens"][TOKEN] = "USDC"
    reject(mutate, match="undefined currency")


def test_duplicate_rule_rejected():
    def mutate(doc):
        events = doc["protocols"]["Aave"]["contracts"][POOL]["events"]
        events.append(copy.deepcopy(events[0]))
    reject(mutate, match="duplicate rule")


def test_missing_currency_rule_rejected():
    def mutate(doc):
        del doc["protocols"]["Aave"]["contracts"][POOL]["events"][0]["currency"]
    reject(mutate, match="currency")


def test_currency_rule_with_both_variants_rejected():
    def mutate(doc):
        doc["protocols"]["Aave"]["contracts"][POOL]["events"][0]["currency"] = {
            "fixed": "DAI", "token": {"topic": 1},
        }
    reject(mutate, match="exactly one")


def test_fixed_currency_must_be_defined():
    def mutate(doc):
        doc["protocols"]["Aave"]["contracts"][POOL]["events"][0]["currency"] = {
            "fixed": "USDC",
        }
    reject(mutate, match="not in currency table")


def test_missing_actor_locator_rejected():
    def mutate(doc):
        del doc["protocols"]["Aave"]["contracts"][POOL]["events"][0]["actor"]
    reject(mutate, match="actor")


def test_topic_index_out_of_range_rejected():
    def mutate(doc):
        doc["protocols"]["Aave"]["contracts"][POOL]["events"][0]["actor"] = {"topic": 4}
    reject(mutate, match="out of range")


def test_malformed_locator_rejected():
    def mutate(doc):
        doc["protocols"]["Aave"]["contracts"][POOL]["events"][0]["actor"] = {
            "topic": 1, "data": 0,
        }
    reject(mutate, match="locator")


def test_swap_outside_uniswap_rejected():
    def mutate(doc):
        doc["protocols"]["Aave"]["contracts"][POOL]["events"][0] = {
            "signature": "Swap(...)",
            "topic0": TOPIC,
            "kind": "swap",
            "actor": {"topic": 1},
            "recipient": {"topic": 2},
            "token0": TOKEN,
            "token1": "0x" + "cc" * 20,
        }
    reject(mutate, match="Uniswap")


def test_swap_with_identical_tokens_rejected():
    def mutate(doc):
        doc["protocols"]["Uniswap"] = {
            "contracts": {
                "0x" + "dd" * 20: {
                    "events": [{
                        "signature": "Swap(...)",
                        "topic0": "0x" + "22" * 32,
                        "kind": "swap",
                        "actor": {"topic": 1},
                        "recipient": {"topic": 2},
                        "token0": TOKEN,
                        "token1": TOKEN,
                    }],
                },
            },
        }
    reject(mutate, match="must differ")


def test_vault_open_outside_maker_rejected():
    def mutate(doc):
        doc["protocols"]["Aave"]["contracts"][POOL]["events"][0] = {
            "signature": "NewCdp(...)",
            "topic0": TOPIC,
            "kind": "vault_open",
            "user": {"topic": 1},
            "proxy": {"topic": 2},
        }
    reject(mutate, match="Maker")


def test_unknown_kind_rejected():
    def mutate(doc):
        doc["protocols"]["Aave"]["contracts"][POOL]["events"][0]["kind"] = "stake"
    reject(mutate, match="unknown event kind")


def test_contract_listed_twice_rejected():
    def mutate(doc):
        doc["protocols"]["Compound"] = {
            "contracts": {POOL: {"events": []}},
        }
    reject(mutate, match="listed twice")


def test_token_listed_twice_rejected():
    # the shipped WETH token again, in upper-case hex, as another currency
    with open(REGISTRY_PATH, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    weth = next(addr for addr, symbol in doc["tokens"].items() if symbol == "WETH")
    again = "0x" + weth[2:].upper()
    doc["tokens"][again] = "WBTC"
    with pytest.raises(ConfigError) as info:
        ContractRegistry.from_dict(doc)
    assert str(info.value) == f"token {again} listed twice"


def test_filter_sets_exposed():
    doc = minimal_doc()
    doc["approvals"] = {
        "signature": "Approval(address,address,uint256)",
        "topic0": "0x" + "33" * 32,
        "owner": {"topic": 1},
        "spender": {"topic": 2},
    }
    registry = ContractRegistry.from_dict(doc)
    pool = bytes.fromhex(POOL[2:])
    token = bytes.fromhex(TOKEN[2:])
    assert pool in registry.addresses
    assert token in registry.addresses  # approval rules cover the tokens
    assert topics_for(registry, pool) == frozenset({bytes.fromhex(TOPIC[2:])})


def test_approvals_section_generates_per_token_rules():
    doc = minimal_doc()
    doc["approvals"] = {
        "signature": "Approval(address,address,uint256)",
        "topic0": "0x" + "33" * 32,
        "owner": {"topic": 1},
        "spender": {"topic": 2},
    }
    registry = ContractRegistry.from_dict(doc)
    token = bytes.fromhex(TOKEN[2:])
    rule = registry.rules.get((token, bytes.fromhex("33" * 32)))
    assert rule is not None and rule.kind == "approval"


CONTRACT = ("protocols", "Aave", "contracts", POOL)
EVENT = CONTRACT + ("events", 0)


def replaced(value, *path):
    """The minimal doc with `value` at `path`; no path replaces the doc."""
    def make():
        doc = minimal_doc()
        if not path:
            return value
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        return doc
    return make


# name -> (a doc with one part of the wrong JSON shape or type, the start
# of its error)
MALFORMED = {
    "document": (replaced([1]), "registry must be a JSON object, got [1]"),
    "currencies": (replaced([1], "currencies"), "currencies must be a JSON object"),
    "currency": (replaced(18, "currencies", "DAI"), "currencies.DAI must be a JSON object"),
    "tokens": (replaced([TOKEN], "tokens"), "tokens must be a JSON object"),
    "protocols": (replaced([], "protocols"), "protocols must be a JSON object"),
    "protocol": (replaced([], "protocols", "Aave"), "protocols.Aave must be a JSON object"),
    "contracts": (replaced([POOL], *CONTRACT[:3]), "protocols.Aave.contracts must be a JSON"),
    "contract": (replaced("cDAI", *CONTRACT), f"Aave contract {POOL} must be a JSON object"),
    "events": (replaced({}, *CONTRACT, "events"), f"Aave contract {POOL}: events must be"),
    "event": (replaced("Borrow", *EVENT), f"Aave contract {POOL} event 0 must be a JSON"),
    "approvals": (replaced([1], "approvals"), "approvals must be a JSON object, got [1]"),
    "token-symbol": (replaced(["DAI"], "tokens", TOKEN), f"token {TOKEN} maps to undefined"),
    "fixed-currency": (replaced({"fixed": ["DAI"]}, *EVENT, "currency"),
                       "Aave/Borrow(...): fixed currency ['DAI'] not in"),
    "decimals-bool": (replaced(True, "currencies", "DAI", "decimals"),
                      "DAI: decimals must be an integer"),
    "topic-bool": (replaced({"topic": True}, *EVENT, "actor"),
                   "Aave/Borrow(...).actor: bad locator {'topic': True}"),
    "data-bool": (replaced({"data": False}, *EVENT, "amount"),
                  "Aave/Borrow(...).amount: bad locator {'data': False}"),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_registry_is_a_config_error(name):
    make, start = MALFORMED[name]
    with pytest.raises(ConfigError) as err:
        ContractRegistry.from_dict(make())
    assert str(err.value).startswith(start)


def test_malformed_registry_fails_ingest_with_one_line(tmp_path, capsys):
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps(MALFORMED["approvals"][0]()))
    config = write_config(tmp_path, tmp_path / "out", registry=str(registry))
    assert main(["ingest", "--config", str(config)]) == 3
    assert capsys.readouterr().err == (
        "ingest: error: approvals must be a JSON object, got [1]\n")
