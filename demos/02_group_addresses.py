#!/usr/bin/env python3
"""Clustering addresses into user groups.

Shows the three grouping stages on the bundled fixture: vault triples
seed the groups, every transacting address joins, groups active on two or
more protocols become eligible, and link pairs (on-behalf repayments,
swap destinations) extend and merge the eligible family.
"""

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dfcflow.cluster import (
    address_protocol_map,
    apply_heuristic_pairs,
    extract_heuristic_pairs,
    group_addresses,
    load_denylist,
    self_approval_pairs,
)
from dfcflow.decode import decode_stream
from dfcflow.ingest import BlockRange, filter_logs, load_fixture
from dfcflow.registry import ContractRegistry
from dfcflow.util import to_hex

registry = ContractRegistry.from_json_file(ROOT / "config" / "registry.json")
logs = load_fixture(ROOT / "data" / "fixture_logs.jsonl")
kept = filter_logs(logs, registry, BlockRange(10_000_000, 10_700_000))
decoded = decode_stream(kept, registry)
denylist = load_denylist(ROOT / "data" / "denylist.csv")

activity = address_protocol_map(decoded.events)
partition = group_addresses(decoded.vault_triples, activity)
print(f"stage 1+2: {len(partition.groups)} groups over "
      f"{len(partition.addr_to_rep)} addresses")
print(f"stage 3:   {len(partition.eligible)} groups touch >= 2 protocols")

pairs = extract_heuristic_pairs(decoded.events, denylist)
by_source = Counter(p.source for p in pairs)
print(f"\nlink pairs mined from the event stream: {len(pairs)}")
for source, count in sorted(by_source.items()):
    print(f"  {source:28s} {count}")

final = apply_heuristic_pairs(partition, pairs, activity)
print(f"\nafter pair application: {len(final.eligible)} eligible groups "
      f"({len(final.groups)} total)")

sizes = Counter(len(final.groups[rep]) for rep in final.eligible)
print("eligible group size histogram:")
for size in sorted(sizes):
    print(f"  {size:3d} members: {'#' * sizes[size]} ({sizes[size]})")

largest = max(final.eligible, key=lambda rep: len(final.groups[rep]))
print(f"\nlargest eligible group ({len(final.groups[largest])} addresses, "
      f"protocols: {', '.join(sorted(final.group_protocols[largest]))})")
for member in sorted(final.groups[largest])[:6]:
    print(f"  {member}")

# The independent self-authorization heuristic, for comparison.
known_contracts = frozenset(to_hex(a) for a in registry.addresses) | frozenset(
    to_hex(t) for t in registry.tokens
)
approval_pairs = self_approval_pairs(decoded.approvals, denylist, known_contracts)
overlap = {p.unordered for p in approval_pairs} & {p.unordered for p in pairs}
print(f"\nself-approval pairs: {len(approval_pairs)}, "
      f"overlapping with link pairs: {len(overlap)}")
