"""Ethereum JSON-RPC log collection over bounded block windows.

Archive nodes commonly cap eth_getLogs result sizes, so the range is
walked in fixed-size windows (default 2,000 blocks).  A transport failure
raises a retryable error carrying the window position, so a caller can
resume without refetching earlier windows; a JSON-RPC error object is
terminal.  Results pass through the same filter/sort as fixture loading,
so an RPC fetch and a fixture export of the same data are identical.
"""

from __future__ import annotations

from typing import Sequence

from .errors import RpcServerError, RpcTransportError
from .ingest import BlockRange, RawLog, filter_logs
from .registry import ContractRegistry
from .util import parse_hex, to_hex

DEFAULT_WINDOW_SIZE = 2000


class RpcClient:
    def __init__(self, endpoint: str, session=None, timeout: float = 30.0):
        import requests  # loaded only when a run talks to a node

        self.endpoint = endpoint
        self._session = session or requests.Session()
        self._timeout = timeout
        self._next_id = 1
        self._block_timestamps: dict[int, int] = {}

    def call(self, method: str, params: list, *, resume_block: int) -> object:
        import requests

        payload = {
            "jsonrpc": "2.0",
            "id": self._next_id,
            "method": method,
            "params": params,
        }
        self._next_id += 1
        try:
            response = self._session.post(self.endpoint, json=payload, timeout=self._timeout)
            response.raise_for_status()
            body = response.json()
        except (requests.RequestException, ValueError) as exc:
            raise RpcTransportError(f"{method} failed: {exc}", resume_block) from exc
        if "error" in body and body["error"]:
            error = body["error"]
            raise RpcServerError(error.get("code", -1), error.get("message", "unknown"))
        return body.get("result")

    def block_timestamp(self, block_number: int) -> int:
        cached = self._block_timestamps.get(block_number)
        if cached is not None:
            return cached
        block = self.call(
            "eth_getBlockByNumber", [hex(block_number), False], resume_block=block_number
        )
        if not isinstance(block, dict) or "timestamp" not in block:
            raise RpcServerError(-1, f"no block data for {block_number}")
        timestamp = int(block["timestamp"], 16)
        self._block_timestamps[block_number] = timestamp
        return timestamp

    def get_logs(self, window: BlockRange, addresses: Sequence[str], topic0s: Sequence[str]):
        params = [{
            "fromBlock": hex(window.start),
            "toBlock": hex(window.end),
            "address": list(addresses),
            "topics": [list(topic0s)],
        }]
        result = self.call("eth_getLogs", params, resume_block=window.start)
        if not isinstance(result, list):
            raise RpcServerError(-1, "eth_getLogs did not return a list")
        return result


def _raw_log_from_rpc(obj: dict, timestamp: int) -> RawLog:
    return RawLog(
        block_number=int(obj["blockNumber"], 16),
        tx_hash=parse_hex(obj["transactionHash"], expected_bytes=32),
        log_index=int(obj["logIndex"], 16),
        contract_address=parse_hex(obj["address"], expected_bytes=20),
        topics=tuple(parse_hex(t, expected_bytes=32) for t in obj.get("topics", [])),
        data=parse_hex(obj.get("data", "0x")),
        timestamp=timestamp,
    )


def fetch_logs(
    endpoint: str,
    block_range: BlockRange,
    registry: ContractRegistry,
    *,
    window_size: int = DEFAULT_WINDOW_SIZE,
    resume_from: int | None = None,
    session=None,
) -> list[RawLog]:
    """Fetch all registry-relevant logs in the range, in global order.

    `resume_from` restarts a failed fetch at the window a previous
    RpcTransportError reported; no partial output is ever returned.
    """
    if window_size < 1:
        raise ValueError("window_size must be positive")
    client = RpcClient(endpoint, session=session)
    addresses = sorted(to_hex(a) for a in registry.addresses)
    topic0s = sorted(to_hex(t) for t in registry.all_topic0)

    collected: list[RawLog] = []
    start = resume_from if resume_from is not None else block_range.start
    while start <= block_range.end:
        window = BlockRange(start, min(start + window_size - 1, block_range.end))
        raw_objs = client.get_logs(window, addresses, topic0s)
        for obj in raw_objs:
            block_number = int(obj["blockNumber"], 16)
            timestamp = client.block_timestamp(block_number)
            collected.append(_raw_log_from_rpc(obj, timestamp))
        start = window.end + 1
    return filter_logs(collected, registry, block_range)
