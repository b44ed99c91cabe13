import contextlib
import json
import math
import threading
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from dfcflow.errors import RpcServerError, RpcTransportError
from dfcflow.ingest import BlockRange, filter_logs, load_fixture, save_fixture
from dfcflow.rpc import BATCH_CALLS, fetch_logs
from dfcflow.synth import block_timestamp
from dfcflow.util import to_hex


class _NodeState:
    def __init__(self, logs):
        self.logs = logs
        self.fail_after = None     # drop connections after N getLogs calls
        self.fail_blocks = False   # drop connections on any getBlockByNumber call
        self.error_object = None   # respond with a JSON-RPC error
        self.reject_batches = False  # answer a batch with one error object
        self.reverse_replies = False
        self.drop_last_reply = False
        self.removed_log_index = None  # serve this log as removed by a reorg
        self.get_logs_calls = 0
        self.block_calls = 0
        self.requests = 0


def _matches(log, params):
    from_block = int(params["fromBlock"], 16)
    to_block = int(params["toBlock"], 16)
    addresses = set(params.get("address", []))
    topic0s = set(params["topics"][0]) if params.get("topics") else None
    if not from_block <= log.block_number <= to_block:
        return False
    if addresses and to_hex(log.contract_address) not in addresses:
        return False
    if topic0s is not None:
        if not log.topics or to_hex(log.topics[0]) not in topic0s:
            return False
    return True


def _node_handler(state: _NodeState):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            state.requests += 1
            if isinstance(body, list) and state.reject_batches:
                self._reply({"jsonrpc": "2.0", "id": None, "error": {
                    "code": -32600, "message": "batch requests are not supported"}})
                return
            replies = [self._answer(call) for call in (body if isinstance(body, list) else [body])]
            if None in replies:
                self.connection.close()
                return
            if not isinstance(body, list):
                self._reply(replies[0])
                return
            if state.reverse_replies:
                replies.reverse()
            if state.drop_last_reply:
                replies.pop()
            self._reply(replies)

        def _answer(self, call):
            """One call's reply, or None to drop the connection."""
            method = call["method"]
            if method == "eth_getLogs":
                state.get_logs_calls += 1
                if state.fail_after is not None and state.get_logs_calls > state.fail_after:
                    return None
                if state.error_object is not None:
                    return {"jsonrpc": "2.0", "id": call["id"], "error": state.error_object}
                result = [
                    {
                        "blockNumber": hex(log.block_number),
                        "transactionHash": to_hex(log.tx_hash),
                        "logIndex": hex(log.log_index),
                        "address": to_hex(log.contract_address),
                        "topics": [to_hex(t) for t in log.topics],
                        "data": to_hex(log.data),
                        "removed": log.log_index == state.removed_log_index,
                    }
                    for log in state.logs
                    if _matches(log, call["params"][0])
                ]
                return {"jsonrpc": "2.0", "id": call["id"], "result": result}
            if method == "eth_getBlockByNumber":
                state.block_calls += 1
                if state.fail_blocks:
                    return None
                number = int(call["params"][0], 16)
                return {
                    "jsonrpc": "2.0",
                    "id": call["id"],
                    "result": {"number": call["params"][0],
                               "timestamp": hex(block_timestamp(number))},
                }
            return {"jsonrpc": "2.0", "id": call["id"],
                    "error": {"code": -32601, "message": "unknown method"}}

        def _reply(self, obj):
            payload = json.dumps(obj).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    return Handler


def _synth_logs(registry, blocks):
    """One registry-decodable log per entry of `blocks`, in that block."""
    import random

    from dfcflow.synth import encode_event_log

    rng = random.Random(9)
    rules = sorted(
        (r for r in registry.rules.values()
         if r.kind in ("collateral_deposit", "debt_create", "debt_repay")
         and r.currency_fixed is not None),
        key=lambda r: (to_hex(r.contract), to_hex(r.topic0)),
    )
    return [
        encode_event_log(
            rules[i % len(rules)], registry,
            block_number=block,
            log_index=i,
            tx_hash=rng.randbytes(32),
            actor=to_hex(rng.randbytes(20)),
            amount=Fraction(i + 1),
            currency=rules[i % len(rules)].currency_fixed,
        )
        for i, block in enumerate(blocks)
    ]


@contextlib.contextmanager
def _serve(logs):
    state = _NodeState(logs)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _node_handler(state))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", state
    finally:
        server.shutdown()


@pytest.fixture(scope="module")
def node_logs(registry):
    # a dozen logs packed into a 30-block span, so tiny RPC windows stay fast
    return _synth_logs(registry, [10_000_000 + (i * 7) % 30 for i in range(12)])


@pytest.fixture()
def mock_node(node_logs):
    with _serve(node_logs) as node:
        yield node


@pytest.fixture(scope="module")
def narrow_range(node_logs):
    return BlockRange(10_000_000, 10_000_029)


def test_fetch_matches_fixture_export(mock_node, registry, narrow_range, tmp_path):
    endpoint, state = mock_node
    fetched = fetch_logs(endpoint, narrow_range, registry, window_size=1000)
    expected = filter_logs(state.logs, registry, narrow_range)
    path = tmp_path / "export.jsonl"
    save_fixture(path, expected)
    assert fetched == load_fixture(path)
    assert all(log.timestamp == block_timestamp(log.block_number) for log in fetched)


def test_window_size_does_not_change_results(mock_node, registry, narrow_range):
    endpoint, _ = mock_node
    one = fetch_logs(endpoint, narrow_range, registry, window_size=1)
    big = fetch_logs(endpoint, narrow_range, registry, window_size=1000)
    assert one == big


def test_empty_range_returns_nothing(mock_node, registry):
    endpoint, _ = mock_node
    assert fetch_logs(endpoint, BlockRange(1, 100), registry) == []


def test_windows_are_batched(mock_node, registry):
    endpoint, state = mock_node
    block_range = BlockRange(10_000_000, 10_000_349)
    fetched = fetch_logs(endpoint, block_range, registry, window_size=1)
    windows = block_range.end - block_range.start + 1
    assert state.get_logs_calls == windows
    assert state.block_calls == len({log.block_number for log in fetched})
    assert state.requests <= 2 * math.ceil(windows / BATCH_CALLS)


def test_timestamps_of_many_blocks_are_batched(registry):
    blocks = [10_000_000 + i for i in range(2 * BATCH_CALLS + 50)]
    with _serve(_synth_logs(registry, blocks)) as (endpoint, state):
        fetched = fetch_logs(endpoint, BlockRange(blocks[0], blocks[-1]), registry)
    assert [log.block_number for log in fetched] == blocks
    assert all(log.timestamp == block_timestamp(log.block_number) for log in fetched)
    assert state.get_logs_calls == 1
    assert state.block_calls == len(blocks)
    assert state.requests == 1 + math.ceil(len(blocks) / BATCH_CALLS)


def test_replies_in_any_order_give_the_same_result(mock_node, registry, narrow_range):
    endpoint, state = mock_node
    in_order = fetch_logs(endpoint, narrow_range, registry, window_size=1)
    state.reverse_replies = True
    assert fetch_logs(endpoint, narrow_range, registry, window_size=1) == in_order


def test_missing_reply_is_terminal(mock_node, registry, narrow_range):
    endpoint, state = mock_node
    state.drop_last_reply = True
    with pytest.raises(RpcServerError, match="no reply to eth_getLogs"):
        fetch_logs(endpoint, narrow_range, registry, window_size=10)


def test_node_that_rejects_batches_is_terminal(mock_node, registry, narrow_range):
    endpoint, state = mock_node
    state.reject_batches = True
    with pytest.raises(RpcServerError) as err:
        fetch_logs(endpoint, narrow_range, registry)
    assert err.value.code == -32600
    assert "batch requests are not supported" in str(err.value)


def test_rpc_error_object_is_terminal(mock_node, registry, narrow_range):
    endpoint, state = mock_node
    state.error_object = {"code": -32005, "message": "query returned too many results"}
    with pytest.raises(RpcServerError) as err:
        fetch_logs(endpoint, narrow_range, registry, window_size=10)
    assert err.value.code == -32005


def test_removed_log_is_rejected(mock_node, registry, narrow_range, node_logs):
    endpoint, state = mock_node
    removed = node_logs[5]
    state.removed_log_index = removed.log_index
    with pytest.raises(RpcServerError) as err:
        fetch_logs(endpoint, narrow_range, registry)
    assert f"log {removed.log_index} of block {removed.block_number}" in str(err.value)


def test_transport_failure_carries_resume_position(mock_node, registry):
    endpoint, state = mock_node
    block_range = BlockRange(10_000_000, 10_000_299)
    state.fail_after = 2 * BATCH_CALLS
    with pytest.raises(RpcTransportError) as err:
        fetch_logs(endpoint, block_range, registry, window_size=1)
    resume = err.value.resume_from_block
    assert resume == block_range.start + 2 * BATCH_CALLS

    # resuming from the reported window and stitching yields the full result
    state.fail_after = None
    first_part = fetch_logs(
        endpoint, BlockRange(block_range.start, resume - 1), registry, window_size=1
    )
    rest = fetch_logs(endpoint, block_range, registry, window_size=1, resume_from=resume)
    full = fetch_logs(endpoint, block_range, registry, window_size=1)
    assert sorted(first_part + rest, key=lambda log: log.order_key) == full


def test_timestamp_failure_resumes_at_its_window_batch(mock_node, registry, node_logs):
    endpoint, state = mock_node
    # the batch's first window lies ten blocks before its first log
    block_range = BlockRange(9_999_990, 10_000_029)
    state.fail_blocks = True
    with pytest.raises(RpcTransportError) as err:
        fetch_logs(endpoint, block_range, registry, window_size=1)
    assert err.value.resume_from_block == block_range.start
    assert min(log.block_number for log in node_logs) > block_range.start
