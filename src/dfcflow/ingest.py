"""Raw log acquisition and filtering.

Logs come either from newline-delimited JSON fixture files (one log per
line, hex fields 0x-prefixed lowercase) or from an archive node via the
RPC client in :mod:`dfcflow.rpc`.  Filtering keeps only logs whose contract
and topic0 appear in the registry and whose block falls inside the
(inclusive) block range, and fixes the global event order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConflictingLogError, FixtureParseError
from .registry import ContractRegistry
from .util import parse_hex, to_hex

FIXTURE_FIELDS = (
    "block_number",
    "timestamp",
    "tx_hash",
    "address",
    "topics",
    "data",
    "log_index",
)


@dataclass(frozen=True)
class RawLog:
    """One undecoded Ethereum log record.

    `(block_number, log_index)` is the global ordering key: it is the only
    total order recoverable from log records alone, and the taint ledger is
    order-sensitive.
    """

    block_number: int
    tx_hash: bytes
    log_index: int
    contract_address: bytes
    topics: tuple[bytes, ...]
    data: bytes
    timestamp: int

    @property
    def order_key(self) -> tuple[int, int]:
        return (self.block_number, self.log_index)

    @property
    def topic0(self) -> bytes | None:
        return self.topics[0] if self.topics else None

    def to_json_line(self) -> str:
        """The compact JSON object of the fixture format, keys in
        FIXTURE_FIELDS order; hex strings need no escaping, so it is
        formatted directly."""
        topics = ",".join(f'"0x{topic.hex()}"' for topic in self.topics)
        return (
            f'{{"block_number":{self.block_number},"timestamp":{self.timestamp},'
            f'"tx_hash":"0x{self.tx_hash.hex()}","address":"0x{self.contract_address.hex()}",'
            f'"topics":[{topics}],"data":"0x{self.data.hex()}","log_index":{self.log_index}}}'
        )

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RawLog":
        missing = [f for f in FIXTURE_FIELDS if f not in obj]
        if missing:
            raise ValueError(f"missing fields {missing}")
        topics = obj["topics"]
        if not isinstance(topics, list) or len(topics) > 4:
            raise ValueError("topics must be a list of at most 4 items")
        for name in ("block_number", "timestamp", "log_index"):
            # JSON true/false are ints to Python; reject them here
            if type(obj[name]) is not int or obj[name] < 0:
                raise ValueError(f"{name} must be a non-negative integer")
        return cls(
            block_number=obj["block_number"],
            tx_hash=parse_hex(obj["tx_hash"], expected_bytes=32),
            log_index=obj["log_index"],
            contract_address=parse_hex(obj["address"], expected_bytes=20),
            topics=tuple(parse_hex(t, expected_bytes=32) for t in topics),
            data=parse_hex(obj["data"]),
            timestamp=obj["timestamp"],
        )


@dataclass(frozen=True)
class BlockRange:
    """Inclusive block range."""

    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"block range start {self.start} > end {self.end}")

    def __contains__(self, block_number: int) -> bool:
        return self.start <= block_number <= self.end


def load_fixture(path: str | Path) -> list[RawLog]:
    """Parse a fixture file into logs, preserving file order.

    A record repeated verbatim is kept (`filter_logs` drops the repeat); a
    different record at a position already seen is a parse error on its
    line.
    """
    logs = []
    first_line: dict[tuple[int, int], tuple[int, RawLog]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                log = RawLog.from_json_obj(obj)
            except (ValueError, TypeError, KeyError) as exc:
                raise FixtureParseError(lineno, str(exc)) from exc
            seen_line, seen = first_line.setdefault(log.order_key, (lineno, log))
            if seen is not log and seen != log:
                raise FixtureParseError(
                    lineno,
                    f"log at (block {log.block_number}, log index {log.log_index}) "
                    f"differs from the one on line {seen_line}",
                )
            logs.append(log)
    return logs


def save_fixture(path: str | Path, logs: Iterable[RawLog]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for log in logs:
            fh.write(log.to_json_line())
            fh.write("\n")


def serialize_fixture(logs: Iterable[RawLog]) -> str:
    return "".join(log.to_json_line() + "\n" for log in logs)


def filter_logs(
    logs: Sequence[RawLog],
    registry: ContractRegistry,
    block_range: BlockRange,
) -> list[RawLog]:
    """Keep registry-relevant logs inside the range, in global event order.

    A log survives iff its contract address is registered, its topic0 is
    registered for that contract, and its block number is within the
    inclusive range.  The result is sorted by (block_number, log_index),
    which is unique per dataset, so the order is total and deterministic:
    a record repeated verbatim is kept once, and two different records at
    one position raise ConflictingLogError.
    """
    kept = [
        log
        for log in logs
        if log.block_number in block_range
        and log.topics
        and registry.rule_for(log.contract_address, log.topics[0]) is not None
    ]
    kept.sort(key=lambda log: log.order_key)
    unique: list[RawLog] = []
    for log in kept:
        if unique and log.order_key == unique[-1].order_key:
            if log != unique[-1]:
                raise ConflictingLogError(
                    f"two different logs at (block {log.block_number}, log index "
                    f"{log.log_index}): tx {to_hex(unique[-1].tx_hash)} and tx "
                    f"{to_hex(log.tx_hash)}"
                )
            continue
        unique.append(log)
    return unique
