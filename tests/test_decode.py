from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dfcflow.decode import (
    CANONICAL_KINDS,
    SWAP,
    decode_event,
    decode_stream,
    normalize_amount,
)
from dfcflow.errors import DecodeError
from dfcflow.ingest import RawLog
from dfcflow.registry import ContractRegistry, Locator
from dfcflow.synth import encode_event_log, token_address_for
from dfcflow.util import SCALE, to_hex

from tests.conftest import REGISTRY_PATH
from tests.oracles import extract_actor, reference_decode_stream

ACTOR = "0x" + "aa" * 20
OTHER = "0x" + "bb" * 20
TXH = b"\xcd" * 32


def canonical_rules(registry):
    return sorted(
        (rule for rule in registry.rules.values() if rule.kind in CANONICAL_KINDS),
        key=lambda r: (to_hex(r.contract), to_hex(r.topic0)),
    )


def test_normalize_amount_usdc_base_units():
    assert normalize_amount(1_000_000, 6) == SCALE


def test_normalize_amount_zero():
    assert normalize_amount(0, 18) == 0


def test_normalize_amount_wei():
    assert normalize_amount(1_500_000_000_000_000_000, 18) == 15 * SCALE // 10


def test_normalize_amount_is_exact_inverse():
    for raw, decimals in [(1, 18), (123456789, 8), (10**27 + 7, 18)]:
        assert Fraction(normalize_amount(raw, decimals), SCALE) * 10**decimals == raw


def test_normalize_amount_rejects_bad_decimals():
    with pytest.raises(ValueError):
        normalize_amount(1, 19)
    with pytest.raises(ValueError):
        normalize_amount(-1, 6)


def _plain_log(topics, data=b""):
    return RawLog(
        block_number=10_000_001,
        tx_hash=TXH,
        log_index=3,
        contract_address=b"\x11" * 20,
        topics=tuple(topics),
        data=data,
        timestamp=1_588_598_520,
    )


def test_extract_actor_from_topic_low_bytes():
    word = b"\x00" * 12 + b"\xab" * 20
    log = _plain_log([b"\x00" * 32, word])
    assert extract_actor(log, Locator("topic", 1)) == "0x" + "ab" * 20


def test_extract_actor_from_data_offset():
    # oracle first: embed a known address at data offset 12, then extract
    data = b"\x00" * 12 + bytes.fromhex(ACTOR[2:]) + b"\x00" * 32
    log = _plain_log([b"\x00" * 32], data)
    assert extract_actor(log, Locator("data", 12)) == ACTOR


def test_extract_actor_topic_out_of_bounds():
    log = _plain_log([b"\x00" * 32, b"\x00" * 32])
    with pytest.raises(DecodeError) as err:
        extract_actor(log, Locator("topic", 3))
    assert err.value.log_index == 3


def test_short_data_is_a_decode_error(registry):
    rules = [r for r in canonical_rules(registry)
             if r.amount and r.amount.source == "data"]
    rule = rules[0]
    log = encode_event_log(
        rule, registry, block_number=10_000_100, log_index=0, tx_hash=TXH,
        actor=ACTOR, amount=Fraction(5), currency=rule.currency_fixed or "WETH",
    )
    truncated = RawLog(
        block_number=log.block_number, tx_hash=log.tx_hash, log_index=log.log_index,
        contract_address=log.contract_address, topics=log.topics,
        data=log.data[:8], timestamp=log.timestamp,
    )
    with pytest.raises(DecodeError) as err:
        decode_event(truncated, registry)
    assert err.value.tx_hash == to_hex(TXH)


def test_unmatched_log_is_a_decode_error(registry):
    log = _plain_log([b"\x99" * 32])
    with pytest.raises(DecodeError):
        decode_event(log, registry)


def test_maker_debt_draw_decodes_to_dai_debt_create(registry):
    dai_join = bytes.fromhex("9759a6ac90977b93b58547b4a71c78317f391a28")
    exit_topic = bytes.fromhex("ef693bed" + "00" * 28)
    rule = registry.rules[dai_join, exit_topic]
    log = encode_event_log(
        rule, registry, block_number=10_000_200, log_index=1, tx_hash=TXH,
        actor=ACTOR, amount=Fraction(2_500), currency="DAI",
    )
    event = decode_event(log, registry)
    assert event.kind == "debt_create"
    assert event.protocol == "Maker"
    assert event.currency == "DAI"
    assert event.amount == 2_500 * SCALE
    assert event.actor == ACTOR


def test_liquidation_log_is_not_relevant(registry):
    rule = next(r for r in registry.rules.values() if r.kind == "liquidation")
    log = encode_event_log(
        rule, registry, block_number=10_000_300, log_index=0, tx_hash=TXH,
        min_data_words=2,
    )
    assert decode_event(log, registry) is None


def test_unknown_reserve_token_is_not_relevant(registry):
    rule = next(
        r for r in registry.rules.values()
        if r.kind == "collateral_deposit" and r.currency_token is not None
    )
    log = encode_event_log(
        rule, registry, block_number=10_000_400, log_index=0, tx_hash=TXH,
        actor=ACTOR, amount=Fraction(1), currency="WETH",
        currency_token="0x" + "45" * 20,
    )
    assert decode_event(log, registry) is None


def test_swap_leg_outside_scope_is_not_relevant(registry):
    # a pair configured with one unlisted leg decodes to nothing
    doc = {
        "currencies": {"WETH": {"decimals": 18, "price_key": "ETH"}},
        "tokens": {"0xc02aaa39b223fe8d0a0e5c4f27ead9083c756cc2": "WETH"},
        "protocols": {"Uniswap": {"contracts": {"0x" + "10" * 20: {"events": [{
            "signature": "Swap(address,uint256,uint256,uint256,uint256,address)",
            "topic0": "0xd78ad95fa46c994b6551d0da85fc275fe613ce37657fb8d5e3d130840159d822",
            "kind": "swap",
            "actor": {"topic": 1},
            "recipient": {"topic": 2},
            "token0": "0xc02aaa39b223fe8d0a0e5c4f27ead9083c756cc2",
            "token1": "0x" + "31" * 20,
        }]}}}},
    }
    tiny = ContractRegistry.from_dict(doc)
    rule = next(iter(tiny.rules.values()))
    log = encode_event_log(
        rule, tiny, block_number=10_000_500, log_index=0, tx_hash=TXH,
        direction="0to1", amount_sent=Fraction(1), amount_received=Fraction(2),
        actor=ACTOR, recipient=OTHER,
    )
    assert decode_event(log, tiny) is None


def test_degenerate_swap_is_not_relevant(registry):
    rule = next(r for r in registry.rules.values() if r.kind == SWAP)
    log = encode_event_log(
        rule, registry, block_number=10_000_600, log_index=0, tx_hash=TXH,
        direction="degenerate", amount_sent=Fraction(5), amount_received=Fraction(0),
        actor=ACTOR, recipient=OTHER,
    )
    assert decode_event(log, registry) is None


def test_swap_recipient_equal_to_actor_collapses_to_none(registry):
    rule = next(r for r in registry.rules.values() if r.kind == SWAP)
    log = encode_event_log(
        rule, registry, block_number=10_000_700, log_index=0, tx_hash=TXH,
        direction="0to1", amount_sent=Fraction(3), amount_received=Fraction(1),
        actor=ACTOR, recipient=ACTOR,
    )
    event = decode_event(log, registry)
    assert event.on_behalf_of is None


def test_encode_decode_round_trip_every_lending_rule(registry):
    for rule in canonical_rules(registry):
        if rule.kind == SWAP:
            continue
        currency = rule.currency_fixed or "USDC"
        amount = Fraction(123_456, 100)  # 1234.56 fits every decimal grid
        fields = dict(actor=ACTOR, amount=amount, currency=currency)
        if rule.on_behalf_of is not None:
            fields["on_behalf_of"] = OTHER
        log = encode_event_log(
            rule, registry, block_number=10_001_000, log_index=7, tx_hash=TXH,
            **fields,
        )
        event = decode_event(log, registry)
        assert event is not None, rule.signature
        assert event.kind == rule.kind
        assert event.protocol == rule.protocol
        assert event.actor == ACTOR
        assert event.currency == currency
        assert event.amount == amount * SCALE
        assert event.order_key == (10_001_000, 7)
        if rule.on_behalf_of is not None:
            assert event.on_behalf_of == OTHER


def test_encode_decode_round_trip_every_swap_rule(registry):
    for rule in (r for r in canonical_rules(registry) if r.kind == SWAP):
        sym0 = registry.tokens[rule.token0]
        sym1 = registry.tokens[rule.token1]
        for direction, sent_sym, recv_sym in (("0to1", sym0, sym1), ("1to0", sym1, sym0)):
            log = encode_event_log(
                rule, registry, block_number=10_002_000, log_index=2, tx_hash=TXH,
                direction=direction,
                amount_sent=Fraction(41, 2),
                amount_received=Fraction(1999, 100),
                actor=ACTOR, recipient=OTHER,
            )
            event = decode_event(log, registry)
            assert event.kind == SWAP
            assert event.currency_sent == sent_sym
            assert event.currency_received == recv_sym
            assert event.amount_sent == 41 * SCALE // 2
            assert event.amount_received == 1999 * SCALE // 100
            assert event.actor == ACTOR
            assert event.on_behalf_of == OTHER


def test_decode_is_pure(registry):
    rule = canonical_rules(registry)[0]
    log = encode_event_log(
        rule, registry, block_number=10_003_000, log_index=1, tx_hash=TXH,
        actor=ACTOR, amount=Fraction(10), currency=rule.currency_fixed or "WETH",
        direction="0to1", amount_sent=Fraction(1), amount_received=Fraction(1),
        recipient=OTHER,
    ) if rule.kind == SWAP else encode_event_log(
        rule, registry, block_number=10_003_000, log_index=1, tx_hash=TXH,
        actor=ACTOR, amount=Fraction(10), currency=rule.currency_fixed or "WETH",
    )
    assert decode_event(log, registry) == decode_event(log, registry)


def test_decode_stream_preserves_order_and_counts(registry):
    dai_join = bytes.fromhex("9759a6ac90977b93b58547b4a71c78317f391a28")
    exit_rule = registry.rules[dai_join, bytes.fromhex("ef693bed" + "00" * 28)]
    join_rule = registry.rules[dai_join, bytes.fromhex("3b4da69f" + "00" * 28)]
    logs = [
        encode_event_log(exit_rule, registry, block_number=10_000_010, log_index=0,
                         tx_hash=TXH, actor=ACTOR, amount=Fraction(100), currency="DAI"),
        encode_event_log(join_rule, registry, block_number=10_000_020, log_index=5,
                         tx_hash=TXH, actor=ACTOR, amount=Fraction(40), currency="DAI"),
    ]
    result = decode_stream(logs, registry)
    assert [e.order_key for e in result.events] == [(10_000_010, 0), (10_000_020, 5)]
    assert result.stats == {"debt_create": 1, "debt_repay": 1}


def test_vault_open_without_urn_degrades_to_proxy(registry):
    manager = bytes.fromhex("5ef30b9986345249bc32d8928b7ee64de9435e39")
    rule = next(t for (c, t0), t in registry.rules.items()
                if c == manager and t.kind == "vault_open")
    log = encode_event_log(
        rule, registry, block_number=10_000_050, log_index=0, tx_hash=TXH,
        user=ACTOR, proxy=OTHER, urn="0x" + "cc" * 20,
    )
    result = decode_stream([log], registry)
    triple = result.vault_triples[0]
    assert triple.user == ACTOR
    assert triple.proxy == OTHER
    assert triple.urn == OTHER  # mainnet NewCdp carries no urn address
    assert triple.addresses == frozenset({ACTOR, OTHER})


def test_approval_decoding(registry):
    token = token_address_for(registry, "USDC")
    rule = registry.rules[token, bytes.fromhex(
        "8c5be1e5ebec7d5bd14f71427d1e84f3dd0314c0f7b2291e5b200ac8c7c3b925")]
    log = encode_event_log(
        rule, registry, block_number=10_000_060, log_index=0, tx_hash=TXH,
        owner=ACTOR, spender=OTHER, value=10**20,
    )
    result = decode_stream([log], registry)
    approval = result.approvals[0]
    assert (approval.owner, approval.spender, approval.token) == (ACTOR, OTHER, "USDC")


SHIPPED = ContractRegistry.from_json_file(REGISTRY_PATH)
RULES_BY_KIND = {
    kind: sorted((r for r in SHIPPED.rules.values() if r.kind == kind),
                 key=lambda r: (r.contract, r.topic0))
    for kind in sorted({r.kind for r in SHIPPED.rules.values()})
}


def _word(address: bytes) -> bytes:
    return bytes(12) + address


# a topic or data word: a small or large amount, a registry token (in
# scope), an unlisted address (out of scope), or any 32 bytes
WORDS = st.one_of(
    st.integers(0, 4).map(lambda n: n.to_bytes(32, "big")),
    st.integers(0, 2**256 - 1).map(lambda n: n.to_bytes(32, "big")),
    st.sampled_from(sorted(SHIPPED.tokens)).map(_word),
    st.binary(min_size=20, max_size=20).map(_word),
    st.binary(min_size=32, max_size=32),
)


@st.composite
def rule_logs(draw):
    """A log at a shipped rule's contract with 0-4 topics (topic0 the
    rule's) and 0-6 data words plus a ragged tail, so that every read
    of every rule falls in bounds or out of them."""
    rule = draw(st.sampled_from(RULES_BY_KIND[draw(st.sampled_from(sorted(RULES_BY_KIND)))]))
    n_topics = draw(st.integers(0, 4))
    topics = (rule.topic0, *draw(st.lists(WORDS, min_size=n_topics, max_size=n_topics)))
    n_words = draw(st.integers(0, 6))
    words = draw(st.lists(WORDS, min_size=n_words, max_size=n_words))
    data = b"".join(words) + draw(st.binary(max_size=31))
    return RawLog(
        block_number=10_000_000 + draw(st.integers(0, 10**6)),
        tx_hash=draw(st.binary(min_size=32, max_size=32)),
        log_index=draw(st.integers(0, 500)),
        contract_address=rule.contract,
        topics=topics[:n_topics],
        data=data,
        timestamp=1_588_598_520,
    )


@settings(max_examples=600, deadline=None)
@given(rule_logs())
def test_decoders_match_the_reference_decoder(log):
    try:
        expected = reference_decode_stream([log], SHIPPED)
    except DecodeError as exc:
        with pytest.raises(DecodeError) as err:
            decode_stream([log], SHIPPED)
        got = err.value
        assert (str(got), got.tx_hash, got.log_index) == (str(exc), exc.tx_hash, exc.log_index)
        return
    got = decode_stream([log], SHIPPED)
    assert got.events == expected.events
    assert got.vault_triples == expected.vault_triples
    assert got.approvals == expected.approvals
    assert got.stats == expected.stats
