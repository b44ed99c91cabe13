"""Raw log acquisition and filtering.

Logs come either from newline-delimited JSON fixture files (one log per
line, hex fields 0x-prefixed, read in either case and written in
lowercase) or from an archive node via the RPC client in
:mod:`dfcflow.rpc`.  Filtering keeps only logs whose contract and topic0
appear in the registry and whose block falls inside the (inclusive)
block range, and fixes the global event order.

A `RawLog` is an immutable named tuple: cheap to build once per log, and
two logs compare equal field by field.
"""

from __future__ import annotations

import binascii
import json
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import ConflictingLogError, TableError
from .registry import ContractRegistry
from .util import parse_hex, to_hex

# blocks per eth_getLogs window of an RPC fetch (`dfcflow.rpc`), unless
# the pipeline config sets `rpc_window`
DEFAULT_WINDOW_SIZE = 100_000

FIXTURE_FIELDS = (
    "block_number",
    "timestamp",
    "tx_hash",
    "address",
    "topics",
    "data",
    "log_index",
)

_fixture_fields = itemgetter(*FIXTURE_FIELDS)
_unhex = binascii.a2b_hex  # unlike bytes.fromhex, it rejects whitespace
_new_log = tuple.__new__  # a RawLog from a tuple, past NamedTuple's Python `__new__`

# the JSON name of a type `json.loads` gives, for errors
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}


def decode_hex_fields(tx_hash, address, topics, data):
    """(tx_hash, address, topics, data) of one log, a list of topics, as
    bytes, each field decoded once with `binascii.a2b_hex`.

    Each field must be a 0x-prefixed string of its size (32 bytes, 20
    bytes, 32 bytes per topic, whole bytes of data) holding only hex
    digits.  Otherwise the fields are parsed one by one with `parse_hex`,
    and the first that fails raises its ValueError, with the field's
    FIXTURE_FIELDS name as the error's `field`.
    """
    try:
        if (len(tx_hash) == 66 and len(address) == 42
                and tx_hash[:2] == address[:2] == data[:2] == "0x"):
            words = []
            for topic in topics:
                if len(topic) != 66 or topic[:2] != "0x":
                    break
                words.append(_unhex(topic[2:]))
            else:
                return _unhex(tx_hash[2:]), _unhex(address[2:]), tuple(words), _unhex(data[2:])
    except (TypeError, ValueError):  # a field that is not a string, or not hex
        pass
    parsed = []
    for field, value, size in (("tx_hash", tx_hash, 32), ("address", address, 20),
                               *(("topics", topic, 32) for topic in topics), ("data", data, None)):
        try:
            parsed.append(parse_hex(value, size))
        except ValueError as exc:
            exc.field = field
            raise
    return parsed[0], parsed[1], tuple(parsed[2:-1]), parsed[-1]


class RawLog(NamedTuple):
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

    # (block_number, log_index); `RawLog.order_key.fget` is a sort key
    order_key = property(itemgetter(0, 2))

    @property
    def topic0(self) -> bytes | None:
        return self.topics[0] if self.topics else None

    def to_json_line(self) -> str:
        """The compact JSON object of the fixture format, keys in
        FIXTURE_FIELDS order; hex strings need no escaping, so it is
        formatted directly."""
        block_number, tx_hash, log_index, address, topics, data, timestamp = self
        topics = ",".join([f'"0x{topic.hex()}"' for topic in topics])
        return (
            f'{{"block_number":{block_number},"timestamp":{timestamp},'
            f'"tx_hash":"0x{tx_hash.hex()}","address":"0x{address.hex()}",'
            f'"topics":[{topics}],"data":"0x{data.hex()}","log_index":{log_index}}}'
        )

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RawLog":
        """The log of one fixture object.  The checks run in a fixed order
        and the first that fails names the fault."""
        if not isinstance(obj, dict):
            kind = _JSON_TYPES.get(type(obj), type(obj).__name__)
            raise ValueError(f"a log must be a JSON object, got {kind}")
        try:
            block_number, timestamp, tx_hash, address, topics, data, log_index = (
                _fixture_fields(obj))
        except KeyError:
            missing = [f for f in FIXTURE_FIELDS if f not in obj]
            raise ValueError(f"missing fields {missing}") from None
        if not isinstance(topics, list) or len(topics) > 4:
            raise ValueError("topics must be a list of at most 4 items")
        for name in ("block_number", "timestamp", "log_index"):
            # JSON true/false are ints to Python; reject them here
            if type(obj[name]) is not int or obj[name] < 0:
                raise ValueError(f"{name} must be a non-negative integer")
        tx_hash, address, topics, data = decode_hex_fields(tx_hash, address, topics, data)
        return _new_log(cls, (block_number, tx_hash, log_index, address, topics, data,
                              timestamp))


class BlockRange(NamedTuple("BlockRange", [("start", int), ("end", int)])):
    """Inclusive block range."""

    __slots__ = ()

    def __new__(cls, start: int, end: int):
        if start > end:
            raise ValueError(f"block range start {start} > end {end}")
        return super().__new__(cls, start, end)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through it
        return cls(*iterable)

    def __contains__(self, block_number: int) -> bool:
        return self.start <= block_number <= self.end


def load_fixture(path: str | Path) -> list[RawLog]:
    """Parse a fixture file into logs, preserving file order.

    A record repeated verbatim is kept (`filter_logs` drops the repeat); a
    different record at a position already seen is an error on its line.
    An unreadable file or a line that does not parse raises `TableError`,
    naming the file and line.
    """
    logs = []
    first_line: dict[tuple[int, int], tuple[int, RawLog]] = {}
    raw_decode = json.JSONDecoder().raw_decode
    lineno = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj, end = raw_decode(line)
                except ValueError:
                    end = None
                if end != len(line):
                    obj = json.loads(line)  # raises json's own message
                log = RawLog.from_json_obj(obj)
                seen_line, seen = first_line.setdefault(log.order_key, (lineno, log))
                if seen is not log and seen != log:
                    raise ValueError(
                        f"log at (block {log.block_number}, log index {log.log_index}) "
                        f"differs from the one on line {seen_line}"
                    )
                logs.append(log)
    except OSError as exc:
        raise TableError(path, f"cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:  # decoded a chunk ahead, so the line is unknown
        raise TableError(path, f"not UTF-8: {exc.reason}") from exc
    except (ValueError, TypeError, KeyError) as exc:
        raise TableError(path, str(exc), lineno) from exc
    return logs


def save_fixture(path: str | Path, logs: Iterable[RawLog]) -> None:
    """Write `logs` in the fixture format, rendered a chunk at a time so
    that no whole-file copy is ever held."""
    logs = iter(logs)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        while chunk := serialize_fixture(islice(logs, 1024)):
            fh.write(chunk)


def serialize_fixture(logs: Iterable[RawLog]) -> str:
    return "".join(log.to_json_line() + "\n" for log in logs)


def filter_logs(
    logs: Sequence[RawLog],
    registry: ContractRegistry,
    block_range: BlockRange,
    counts: dict | None = None,
) -> list[RawLog]:
    """Keep registry-relevant logs inside the range, in global event order.

    A log survives iff its contract address is registered, its topic0 is
    registered for that contract, and its block number is within the
    inclusive range.  The result is sorted by (block_number, log_index),
    which is unique per dataset, so the order is total and deterministic:
    a record repeated verbatim is kept once, and two different records at
    one position raise ConflictingLogError.  A `counts` dict is given the
    logs `read`, those dropped as `out_of_range`, `not_registered` or
    `repeats`, and those `kept`.
    """
    start, end = block_range
    in_range = [log for log in logs if start <= log.block_number <= end]
    kept = [log for log in in_range
            if log.topics and (log.contract_address, log.topics[0]) in registry.rules]
    kept.sort(key=RawLog.order_key.fget)
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
    if counts is not None:
        counts.update(read=len(logs), out_of_range=len(logs) - len(in_range),
                      not_registered=len(in_range) - len(kept),
                      repeats=len(kept) - len(unique), kept=len(unique))
    return unique
