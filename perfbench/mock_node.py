"""Local mock Ethereum JSON-RPC node for the ``rpc`` workload.

Serves ``eth_getLogs`` (block range, address list and topic0 list, as a
real node filters them) and ``eth_getBlockByNumber`` (timestamp only) from
a fixture file, on 127.0.0.1 at an ephemeral port.  A request may be a
single call or a JSON-RPC batch (a list of calls, answered with a list).
Calls are counted by method and HTTP round trips under ``http_requests``;
``mock_stats`` returns the counts and ``mock_reset`` clears them.  Each response goes out in a single send with TCP_NODELAY set, so a
keep-alive client never waits on a delayed ACK and the timings measure
the client, not the mock.

Run:  python3 perfbench/mock_node.py <logs.jsonl>
It prints ``port <n>`` once it listens and serves until SIGTERM.
"""

from __future__ import annotations

import bisect
import json
import signal
import socket
import sys
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer


class Chain:
    def __init__(self, path: str):
        rows = []
        self.timestamps: dict[int, int] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                obj = json.loads(line)
                rows.append(obj)
                self.timestamps[obj["block_number"]] = obj["timestamp"]
        rows.sort(key=lambda o: (o["block_number"], o["log_index"]))
        self.blocks = [o["block_number"] for o in rows]
        self.logs = [
            {
                "blockNumber": hex(o["block_number"]),
                "transactionHash": o["tx_hash"],
                "logIndex": hex(o["log_index"]),
                "address": o["address"],
                "topics": o["topics"],
                "data": o["data"],
                "removed": False,
            }
            for o in rows
        ]
        self.calls: Counter[str] = Counter()

    def get_logs(self, flt: dict) -> list[dict]:
        lo = bisect.bisect_left(self.blocks, int(flt["fromBlock"], 16))
        hi = bisect.bisect_right(self.blocks, int(flt["toBlock"], 16))
        addresses = {a.lower() for a in flt.get("address") or []}
        topics = flt.get("topics") or []
        topic0s = {t.lower() for t in topics[0]} if topics and topics[0] else None
        return [
            log for log in self.logs[lo:hi]
            if (not addresses or log["address"] in addresses)
            and (topic0s is None or (log["topics"] and log["topics"][0] in topic0s))
        ]

    def handle_http(self, request: dict | list) -> dict | list:
        """Answer one HTTP request body: a call or a batch of calls."""
        if isinstance(request, list):
            self.calls["http_requests"] += 1
            return [self.handle(call) for call in request]
        if not str(request.get("method")).startswith("mock_"):
            self.calls["http_requests"] += 1
        return self.handle(request)

    def handle(self, request: dict) -> dict:
        method = request.get("method")
        params = request.get("params") or []
        reply = {"jsonrpc": "2.0", "id": request.get("id")}
        if method == "mock_stats":
            reply["result"] = dict(self.calls)
            return reply
        if method == "mock_reset":
            self.calls.clear()
            reply["result"] = True
            return reply
        self.calls[method] += 1
        if method == "eth_getLogs":
            reply["result"] = self.get_logs(params[0])
        elif method == "eth_getBlockByNumber":
            number = int(params[0], 16)
            ts = self.timestamps.get(number)
            reply["result"] = None if ts is None else {"number": params[0], "timestamp": hex(ts)}
        else:
            reply["error"] = {"code": -32601, "message": f"method {method!r} not found"}
        return reply


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    chain: Chain

    def setup(self):
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length))
        body = json.dumps(self.chain.handle_http(request), separators=(",", ":")).encode()
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode()
        self.wfile.write(head + body)

    def log_message(self, format, *args):
        pass


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: mock_node.py <logs.jsonl>", file=sys.stderr)
        return 2
    Handler.chain = Chain(argv[0])
    server = HTTPServer(("127.0.0.1", 0), Handler)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
