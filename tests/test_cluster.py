import random

import pytest
from hypothesis import given, settings, strategies as st

from dfcflow.cluster import (
    HeuristicPair,
    address_protocol_map,
    apply_heuristic_pairs,
    extract_heuristic_pairs,
    group_addresses,
    read_partition_csv,
    self_approval_pairs,
    write_partition_csv,
)
from dfcflow.decode import ApprovalEvent, CanonicalEvent, VaultTriple
from dfcflow.errors import TableError

from tests.conftest import eligible_family, group_family, units
from tests.oracles import brute_force_grouping


def addr(n: int) -> str:
    return "0x" + f"{n:040x}"


def event(actor, protocol, kind="collateral_deposit", position=0, on_behalf_of=None,
          currency="DAI", amount=1):
    if kind == "swap":
        return CanonicalEvent(
            kind=kind, protocol=protocol, actor=actor,
            block_number=10_000_000 + position, log_index=0, timestamp=1_588_598_520,
            currency_sent="DAI", currency_received="WETH",
            amount_sent=units(amount), amount_received=units(amount),
            on_behalf_of=on_behalf_of,
        )
    return CanonicalEvent(
        kind=kind, protocol=protocol, actor=actor,
        block_number=10_000_000 + position, log_index=0, timestamp=1_588_598_520,
        currency=currency, amount=units(amount), on_behalf_of=on_behalf_of,
    )


def two_protocol_events(actor, position=0):
    return [
        event(actor, "Aave", position=position),
        event(actor, "Compound", position=position + 1),
    ]


def test_shared_triple_addresses_merge_transitively():
    triples = [VaultTriple(addr(1), addr(2), addr(10)),
               VaultTriple(addr(2), addr(3), addr(11))]
    partition = group_addresses(triples, {})
    assert group_family(partition) == frozenset(
        {frozenset({addr(1), addr(2), addr(3), addr(10), addr(11)})}
    )


def test_degenerate_triple_is_a_two_address_set():
    triple = VaultTriple(addr(5), addr(5), addr(6))
    partition = group_addresses([triple], {})
    assert group_family(partition) == frozenset({frozenset({addr(5), addr(6)})})


def test_duplicate_triples_collapse():
    t = VaultTriple(addr(1), addr(2), addr(3))
    assert group_addresses([t, t, t], {}) == group_addresses([t], {})


def test_single_protocol_group_is_not_eligible():
    partition = group_addresses([], address_protocol_map([event(addr(1), "Aave")]))
    assert partition.eligible == frozenset()
    assert group_family(partition) == frozenset({frozenset({addr(1)})})


def test_two_protocol_group_is_eligible():
    partition = group_addresses([], address_protocol_map(two_protocol_events(addr(1))))
    assert partition.eligible == frozenset({addr(1)})


def test_hand_enumerated_eligible_count():
    # 3 vault triples (one pair shares a proxy -> 2 base vault groups) and
    # 4 disjoint singleton actors, each touching 2 protocols
    triples = [
        VaultTriple(addr(1), addr(2), addr(3)),
        VaultTriple(addr(4), addr(2), addr(5)),   # shares proxy addr(2)
        VaultTriple(addr(6), addr(7), addr(8)),
    ]
    events = []
    position = 0
    for a in (addr(1), addr(6)):  # make both vault groups eligible
        events.append(event(a, "Maker", position=position))
        events.append(event(a, "Aave", position=position + 1))
        position += 2
    singles = [addr(20), addr(21), addr(22), addr(23)]
    for a in singles:
        events.extend(two_protocol_events(a, position))
        position += 2
    partition = group_addresses(triples, address_protocol_map(events))
    # hand count: {1,2,3,4,5}, {6,7,8}, and the 4 singletons
    assert len(partition.eligible) == 6
    expected_eligible, _ = brute_force_grouping(triples, events, [])
    assert eligible_family(partition) == expected_eligible


def test_pair_bridging_two_eligible_groups_merges_them():
    events = two_protocol_events(addr(1)) + two_protocol_events(addr(2), 10)
    activity = address_protocol_map(events)
    merged = apply_heuristic_pairs(
        group_addresses([], activity),
        [HeuristicPair(addr(1), addr(2), "UniswapSwapRecipient")],
        activity,
    )
    assert eligible_family(merged) == frozenset({frozenset({addr(1), addr(2)})})


def test_pair_in_component_without_eligible_group_has_no_effect():
    events = [event(addr(1), "Aave")]  # one protocol: not eligible
    activity = address_protocol_map(events)
    partition = group_addresses([], activity)
    result = apply_heuristic_pairs(
        partition, [HeuristicPair(addr(1), addr(9), "AaveRepayOnBehalf")], activity,
    )
    assert group_family(result) == group_family(partition)
    assert result.eligible == frozenset()


def test_pair_absorbs_unassigned_address():
    events = two_protocol_events(addr(1))
    activity = address_protocol_map(events)
    partition = group_addresses([], activity)
    result = apply_heuristic_pairs(
        partition, [HeuristicPair(addr(1), addr(9), "AaveRepayOnBehalf")], activity,
    )
    assert eligible_family(result) == frozenset({frozenset({addr(1), addr(9)})})


def test_chain_of_pairs_is_order_independent():
    events = two_protocol_events(addr(1)) + two_protocol_events(addr(3), 10)
    pairs = [
        HeuristicPair(addr(1), addr(2), "UniswapSwapRecipient"),
        HeuristicPair(addr(2), addr(3), "UniswapSwapRecipient"),
    ]
    expected = frozenset({frozenset({addr(1), addr(2), addr(3)})})
    activity = address_protocol_map(events)
    for ordering in (pairs, pairs[::-1]):
        result = apply_heuristic_pairs(group_addresses([], activity), ordering, activity)
        assert eligible_family(result) == expected
    oracle_eligible, _ = brute_force_grouping([], events, pairs)
    assert oracle_eligible == expected


def test_default_mode_moves_only_the_paired_address():
    # addr(2)+addr(3) form a non-eligible vault group; a pair pulls only addr(2)
    triples = [VaultTriple(addr(2), addr(3), addr(3))]
    events = two_protocol_events(addr(1)) + [event(addr(2), "Maker", 20)]
    activity = address_protocol_map(events)
    result = apply_heuristic_pairs(
        group_addresses(triples, activity),
        [HeuristicPair(addr(1), addr(2), "AaveRepayOnBehalf")],
        activity,
    )
    assert frozenset({addr(1), addr(2)}) in eligible_family(result)
    assert frozenset({addr(3)}) in group_family(result)


def test_pairs_never_shrink_eligible_groups():
    events = (two_protocol_events(addr(1)) + two_protocol_events(addr(2), 10)
              + two_protocol_events(addr(3), 20))
    activity = address_protocol_map(events)
    partition = group_addresses([], activity)
    pairs = [HeuristicPair(addr(1), addr(2), "UniswapSwapRecipient")]
    result = apply_heuristic_pairs(partition, pairs, activity)
    for rep in partition.eligible:
        members = partition.groups[rep]
        assert any(members <= final for final in eligible_family(result))


def test_heuristic_pair_rejects_equal_endpoints():
    with pytest.raises(ValueError, match="^heuristic pair endpoints must differ$"):
        HeuristicPair(addr(1), addr(1), "AaveRepayOnBehalf")
    with pytest.raises(ValueError, match="^heuristic pair endpoints must differ$"):
        HeuristicPair(addr(1), addr(2), "AaveRepayOnBehalf")._replace(r2=addr(1))


def test_partition_is_immutable_and_equals_its_checkpoint(tmp_path):
    events = two_protocol_events(addr(1)) + [event(addr(2), "Maker", 20)]
    partition = group_addresses([VaultTriple(addr(2), addr(3), addr(3))],
                                address_protocol_map(events))
    path = tmp_path / "partition.csv"
    write_partition_csv(path, partition)
    assert read_partition_csv(path) == partition
    assert group_addresses([], address_protocol_map(events)) != partition
    for name in ("groups", "group_protocols", "addr_to_rep", "eligible"):
        with pytest.raises(AttributeError):
            setattr(partition, name, getattr(partition, name))


A, B, C = addr(1), addr(2), addr(3)


@pytest.mark.parametrize("rows, line, message", [
    ([(A, A, "Aave;Maker"), (A, B, "Aave;Maker"), (C, B, "")], 4,
     f"member {B} listed under {A} and {C}"),
    ([(B, B, "Aave"), (B, A, "Aave")], 3,
     f"member {A} is smaller than its representative {B}"),
    ([(A, A, "Aave;Maker"), (A, B, "Aave")], 3,
     f"group {A} has two different protocols_touched"),
    ([(A, B, "Aave")], None, f"representative {A} is not a member of its group"),
    ([(A, A, "Aave;Maker"), (A, B, "Aave;Foo")], 3, "unknown protocol 'Foo'"),
    ([(A, A, "Aave"), (A, B.upper(), "Aave")], 3,
     f"invalid member '{B.upper()}': expected 0x and 40 lowercase hex digits"),
    ([("alice", "alice", "Aave")], 2,
     "invalid representative 'alice': expected 0x and 40 lowercase hex digits"),
    ([(A, A, "Maker;Aave;Aave")], 2, "protocols_touched 'Maker;Aave;Aave' is not its protocols "
     "sorted, each once, joined by ';'"),
    ([(A, A, "Aave;Maker"), (A, B, "Maker;Aave")], 3, "protocols_touched 'Maker;Aave' is not "
     "its protocols sorted, each once, joined by ';'"),
    ([(A, A, ";Aave")], 2, "protocols_touched ';Aave' is not its protocols sorted, each once, "
     "joined by ';'"),
    ([(A, A, "Aave;;Maker")], 2, "protocols_touched 'Aave;;Maker' is not its protocols sorted, "
     "each once, joined by ';'"),
], ids=["member-twice", "member-below-representative", "protocols-differ",
        "representative-not-member", "unknown-protocol", "member-not-address",
        "representative-not-address", "protocols-repeated", "protocols-unsorted",
        "protocols-empty-entry", "protocols-doubled-separator"])
def test_corrupt_partition_checkpoint_is_rejected(tmp_path, rows, line, message):
    path = tmp_path / "partition.csv"
    path.write_text("representative,member,protocols_touched\n"
                    + "".join(",".join(row) + "\n" for row in rows))
    with pytest.raises(TableError) as info:
        read_partition_csv(path)
    assert (str(info.value), info.value.line) == (
        f"{path}, line {line}: {message}" if line else f"{path}: {message}", line)


def test_extract_heuristic_pairs_sources_and_denylist():
    exchange = addr(99)
    events = [
        event(addr(1), "Aave", kind="debt_repay", on_behalf_of=addr(2)),
        event(addr(3), "Compound", kind="debt_repay", position=1, on_behalf_of=addr(4)),
        event(addr(5), "Uniswap", kind="swap", position=2, on_behalf_of=addr(6)),
        event(addr(7), "Maker", kind="debt_repay", position=3, on_behalf_of=addr(8)),
        event(addr(1), "Aave", kind="debt_repay", position=4),  # self repay
        event(addr(9), "Uniswap", kind="swap", position=5, on_behalf_of=exchange),
        event(addr(1), "Aave", kind="debt_repay", position=6, on_behalf_of=addr(2)),
    ]
    pairs = extract_heuristic_pairs(events, frozenset({exchange}))
    assert [(p.r1, p.r2, p.source) for p in pairs] == [
        (addr(1), addr(2), "AaveRepayOnBehalf"),
        (addr(3), addr(4), "CompoundRepayBorrowBehalf"),
        (addr(5), addr(6), "UniswapSwapRecipient"),
    ]


def test_self_approval_pairs_filters():
    contract = addr(50)
    exchange = addr(51)
    approvals = [
        ApprovalEvent("USDC", addr(1), addr(1), 1, 0, 0),        # owner == spender
        ApprovalEvent("USDC", addr(1), contract, 2, 0, 0),       # known contract
        ApprovalEvent("USDC", addr(1), exchange, 3, 0, 0),       # labeled
        ApprovalEvent("USDC", addr(1), addr(2), 4, 0, 0),
        ApprovalEvent("DAI", addr(1), addr(2), 5, 0, 0),         # duplicate pair
    ]
    pairs = self_approval_pairs(
        approvals, frozenset({exchange}), frozenset({contract})
    )
    assert [(p.r1, p.r2) for p in pairs] == [(addr(1), addr(2))]
    assert pairs[0].source == "Erc20SelfApproval"


def test_overlap_count_between_methods():
    events = [
        event(addr(1), "Aave", kind="debt_repay", on_behalf_of=addr(2)),
        event(addr(3), "Uniswap", kind="swap", position=1, on_behalf_of=addr(4)),
    ]
    approvals = [
        ApprovalEvent("USDC", addr(2), addr(1), 1, 0, 0),  # same pair, other order
        ApprovalEvent("USDC", addr(5), addr(6), 2, 0, 0),
    ]
    heuristic = extract_heuristic_pairs(events)
    approval = self_approval_pairs(approvals)
    overlap = {p.unordered for p in heuristic} & {p.unordered for p in approval}
    assert len(overlap) == 1


def test_representative_is_smallest_member():
    # two triples joined through addr(7), the smaller one read second
    partition = group_addresses(
        [VaultTriple(addr(9), addr(7), addr(8)), VaultTriple(addr(7), addr(4), addr(4))],
        {addr(9): frozenset({"Maker"})})
    members = frozenset({addr(4), addr(7), addr(8), addr(9)})
    assert partition.groups == {addr(4): members}
    assert {partition.addr_to_rep[a] for a in members} == {addr(4)}


# --- randomized equivalence with the brute-force oracle -----------------------

def random_instance(rng: random.Random):
    n_addrs = rng.randint(1, 60)
    pool = [addr(i) for i in range(1, n_addrs + 1)]
    triples = [
        VaultTriple(rng.choice(pool), rng.choice(pool), rng.choice(pool))
        for _ in range(rng.randint(0, 12))
    ]
    protocols = ("Aave", "Compound", "Maker", "Uniswap")
    events = []
    for position, _ in enumerate(range(rng.randint(0, 40))):
        events.append(event(rng.choice(pool), rng.choice(protocols), position=position))
    pairs = []
    for _ in range(rng.randint(0, 12)):
        a, b = rng.sample(pool, 2) if len(pool) >= 2 else (None, None)
        if a:
            pairs.append(HeuristicPair(a, b, "UniswapSwapRecipient"))
    return triples, events, pairs


def test_random_instances_match_brute_force():
    rng = random.Random(7)
    for _ in range(120):
        triples, events, pairs = random_instance(rng)
        activity = address_protocol_map(events)
        result = apply_heuristic_pairs(group_addresses(triples, activity), pairs, activity)
        result.validate()
        oracle_eligible, oracle_full = brute_force_grouping(triples, events, pairs)
        assert eligible_family(result) == oracle_eligible
        assert group_family(result) == oracle_full


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_permutation_invariance(seed):
    rng = random.Random(seed)
    triples, events, pairs = random_instance(rng)
    activity = address_protocol_map(events)
    baseline = apply_heuristic_pairs(group_addresses(triples, activity), pairs, activity)
    for _ in range(3):
        rng.shuffle(triples)
        rng.shuffle(events)
        rng.shuffle(pairs)
        activity = address_protocol_map(events)
        shuffled = apply_heuristic_pairs(group_addresses(triples, activity), pairs, activity)
        assert eligible_family(shuffled) == eligible_family(baseline)
        assert group_family(shuffled) == group_family(baseline)
