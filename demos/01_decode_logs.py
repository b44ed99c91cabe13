#!/usr/bin/env python3
"""From raw hex logs to classified protocol events.

Walks the first stage of the pipeline on the bundled fixture: filter the
raw logs down to registry-relevant ones, decode them, and look at what
comes out the other side.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dfcflow.decode import decode_stream
from dfcflow.ingest import BlockRange, filter_logs, load_fixture
from dfcflow.registry import ContractRegistry
from dfcflow.util import format_fixed

registry = ContractRegistry.from_json_file(ROOT / "config" / "registry.json")
logs = load_fixture(ROOT / "data" / "fixture_logs.jsonl")
print(f"fixture holds {len(logs)} raw logs")

# Filtering keeps only logs whose (contract, topic0) pair the registry
# knows, inside the inclusive block range, and fixes the global order.
kept = filter_logs(logs, registry, BlockRange(10_000_000, 10_700_000))
print(f"{len(kept)} logs survive the contract/signature/range filter")

first = kept[0]
print("\nfirst surviving log:")
print(f"  block {first.block_number}, index {first.log_index}")
print(f"  contract 0x{first.contract_address.hex()}")
print(f"  topics: {len(first.topics)}, data: {len(first.data)} bytes")

# Decoding turns each log into a canonical event (or drops it silently if
# it is a liquidation or involves a currency outside the supported five).
result = decode_stream(kept, registry)
print(f"\ndecoded {len(result.events)} canonical events")
print("decode statistics:")
for key, count in sorted(result.stats.items()):
    print(f"  {key:24s} {count}")

print("\na few decoded events:")
for event in result.events[:3]:
    if event.kind == "swap":
        print(f"  [{event.protocol}] swap {format_fixed(event.amount_sent)} {event.currency_sent}"
              f" -> {format_fixed(event.amount_received)} {event.currency_received}"
              f" by {event.actor[:10]}…")
    else:
        print(f"  [{event.protocol}] {event.kind} {format_fixed(event.amount)} {event.currency}"
              f" by {event.actor[:10]}…")

print(f"\nMaker vault openings decoded: {len(result.vault_triples)}")
print(f"ERC-20 approvals captured for the comparison harness: {len(result.approvals)}")
