"""Ethereum JSON-RPC log collection over bounded block windows.

Archive nodes commonly cap eth_getLogs result sizes, so the range is
walked in fixed-size windows (default 2,000 blocks).  Calls travel as
JSON-RPC 2.0 batches, a list of calls in one HTTP request answered with a
list of replies: up to `BATCH_CALLS` (100) consecutive eth_getLogs
windows per request, then the timestamps of that batch's blocks not yet
seen, up to 100 eth_getBlockByNumber calls per request.  Most windows
are empty, so one round trip per window or per block would dominate the
fetch; 100 calls sits well under geth's default limit of 1,000 calls per
batch.  A node may answer a batch's calls in any order, so replies are
matched by id.

A missing reply or a reply carrying a JSON-RPC error object is terminal.
A node that rejects batches answers with a single error object instead
of a list; that is terminal too, as there is no single-call fallback.

A batch's logs join the result only once their timestamps have arrived,
so a transport failure raises a retryable error carrying the first
window of the failed batch: a caller resumes from there without
refetching earlier batches, and no partial output is ever returned.
Results pass through the same filter/sort as fixture loading, so an RPC
fetch and a fixture export of the same data are identical.
"""

from __future__ import annotations

from typing import Sequence

from .errors import RpcServerError, RpcTransportError
from .ingest import BlockRange, RawLog, filter_logs
from .registry import ContractRegistry
from .util import parse_hex, to_hex

DEFAULT_WINDOW_SIZE = 2000
BATCH_CALLS = 100


class RpcClient:
    def __init__(self, endpoint: str, session=None, timeout: float = 30.0):
        import requests  # loaded only when a run talks to a node

        self.endpoint = endpoint
        self._session = session or requests.Session()
        self._timeout = timeout
        self._next_id = 1

    def batch(self, calls: Sequence[tuple[str, list]], *, resume_block: int) -> list:
        """Send (method, params) calls as one batch; results in call order."""
        import requests

        payload = [
            {"jsonrpc": "2.0", "id": self._next_id + i, "method": method, "params": params}
            for i, (method, params) in enumerate(calls)
        ]
        self._next_id += len(payload)
        try:
            response = self._session.post(self.endpoint, json=payload, timeout=self._timeout)
            response.raise_for_status()
            body = response.json()
        except (requests.RequestException, ValueError) as exc:
            raise RpcTransportError(
                f"batch of {len(payload)} {payload[0]['method']} calls failed: {exc}",
                resume_block,
            ) from exc
        if not isinstance(body, list):
            error = (body.get("error") if isinstance(body, dict) else None) or {}
            raise RpcServerError(
                error.get("code", -1), error.get("message", "batch reply is not a list")
            )
        replies = {reply.get("id"): reply for reply in body if isinstance(reply, dict)}
        results = []
        for call in payload:
            reply = replies.get(call["id"])
            if reply is None:
                raise RpcServerError(-1, f"no reply to {call['method']} call {call['id']}")
            error = reply.get("error")
            if error:
                raise RpcServerError(error.get("code", -1), error.get("message", "unknown"))
            results.append(reply.get("result"))
        return results


def _raw_log_from_rpc(obj: dict, timestamps: dict[int, int]) -> RawLog:
    block_number = int(obj["blockNumber"], 16)
    log_index = int(obj["logIndex"], 16)
    if obj.get("removed"):
        raise RpcServerError(
            -1, f"log {log_index} of block {block_number} was removed by a reorg"
        )
    return RawLog(
        block_number=block_number,
        tx_hash=parse_hex(obj["transactionHash"], expected_bytes=32),
        log_index=log_index,
        contract_address=parse_hex(obj["address"], expected_bytes=20),
        topics=tuple(parse_hex(t, expected_bytes=32) for t in obj.get("topics", [])),
        data=parse_hex(obj.get("data", "0x")),
        timestamp=timestamps[block_number],
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
    log_filter = {
        "address": sorted(to_hex(a) for a in registry.addresses),
        "topics": [sorted(to_hex(t) for t in registry.all_topic0)],
    }
    timestamps: dict[int, int] = {}
    collected: list[RawLog] = []
    first = resume_from if resume_from is not None else block_range.start
    starts = range(first, block_range.end + 1, window_size)
    for i in range(0, len(starts), BATCH_CALLS):
        batch_starts = starts[i:i + BATCH_CALLS]
        resume_block = batch_starts[0]
        calls = [
            ("eth_getLogs", [{
                "fromBlock": hex(start),
                "toBlock": hex(min(start + window_size - 1, block_range.end)),
                **log_filter,
            }])
            for start in batch_starts
        ]
        objs = []
        for result in client.batch(calls, resume_block=resume_block):
            if not isinstance(result, list):
                raise RpcServerError(-1, "eth_getLogs did not return a list")
            objs.extend(result)

        blocks = sorted({int(obj["blockNumber"], 16) for obj in objs} - timestamps.keys())
        for j in range(0, len(blocks), BATCH_CALLS):
            chunk = blocks[j:j + BATCH_CALLS]
            calls = [("eth_getBlockByNumber", [hex(number), False]) for number in chunk]
            for number, block in zip(chunk, client.batch(calls, resume_block=resume_block)):
                if not isinstance(block, dict) or "timestamp" not in block:
                    raise RpcServerError(-1, f"no block data for {number}")
                timestamps[number] = int(block["timestamp"], 16)

        collected.extend(_raw_log_from_rpc(obj, timestamps) for obj in objs)
    return filter_logs(collected, registry, block_range)
