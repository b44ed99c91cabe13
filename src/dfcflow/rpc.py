"""Ethereum JSON-RPC log collection over adaptive block windows.

A fetch walks the range in windows of `window_size` blocks (default
100,000, so the 2020–21 range is 41 windows).  The default assumes a
node that takes a window of any length and answers a result over its cap
with JSON-RPC error -32005 ("limit exceeded", EIP-1474), such as "query
returned more than 10000 results".  On that error the fetch halves the
window size and restarts at the window that failed; the windows before
it in the same batch are kept.  After a
batch in which every window fit, the size doubles again, up to
`window_size`, so one dense stretch does not set it for the rest of the
range.  A -32005 on a one-block window is terminal, so a node that
answers every call with -32005 fails after at most
ceil(log2(window_size)) + 1 eth_getLogs batches.  A -32005 whose message
speaks of a rate ("request rate limited") is a rate limit, not a result
limit, and is terminal at once.  A node that caps the block range
answers an over-long window with some other code (such as -32602); any
other error object is terminal, and on a window wider than one block its
message says to set `rpc_window` to the node's range cap.

Calls travel as JSON-RPC 2.0 batches, a list of calls in one HTTP
request answered with a list of replies: up to `BATCH_CALLS` (100)
consecutive eth_getLogs windows per request, then the timestamps of that
batch's blocks not yet seen, up to 100 eth_getBlockByNumber calls per
request.  100 calls sits well under geth's default limit of 1,000 calls
per batch.  A node may answer a batch's calls in any order, so replies
are matched by id.

The transport is the standard library's `http.client`, imported only
when a fetch starts.  A fetch keeps one HTTP/1.1 connection to the
endpoint for all its batches, so an HTTPS node costs one TLS handshake
per fetch, not one per batch; a reply with `Connection: close` (or an
HTTP/1.0 reply) reopens it for the next batch, and so does a connection
the node closed while idle.  Proxies come from the environment
(`http_proxy`, `https_proxy`, `no_proxy`, in either case, read through
`urllib.request.getproxies` and `proxy_bypass`): an http endpoint is
sent to the proxy as an absolute URI, an https endpoint through a
CONNECT tunnel, and credentials in the proxy URL (or the endpoint URL)
go out as HTTP Basic authorization.  TLS uses the default `ssl` context:
the system trust store, or the one `SSL_CERT_FILE` / `SSL_CERT_DIR`
name.  Requests accept gzip and gzip-encoded replies are decoded, as
nodes commonly compress large eth_getLogs results.

A connection failure, a timeout (30 s, on connect and on each read), an
HTTP status outside 2xx and a body that is not JSON are transport
errors.  A batch's logs join the result only once their timestamps have
arrived, so a transport error (`RpcTransportError`) carries the first
window of the failed batch: a caller resumes from there without
refetching earlier batches, and no partial output is ever returned.
The one retry: a batch sent over a reused connection that fails before
any status line arrives is sent once more on a fresh connection, since
a node may close a kept-alive connection just as the next request goes
out, and every call sent is a read.

A missing reply or a reply carrying any other JSON-RPC error object is
terminal (`RpcServerError`), and so is a log or block object with a
missing or malformed field, named with its block and log index where
known.  A node that rejects batches answers with a single error object
instead of a list; that is terminal too, as there is no single-call
fallback.

Results pass through the same filter/sort as fixture loading, so an RPC
fetch and a fixture export of the same data are identical.
"""

from __future__ import annotations

import json
import re
from contextlib import closing
from typing import Sequence

from .errors import ConfigError, RpcServerError, RpcTransportError
from .ingest import DEFAULT_WINDOW_SIZE, BlockRange, RawLog, decode_hex_fields, filter_logs
from .registry import ContractRegistry
from .util import to_hex

BATCH_CALLS = 100
TIMEOUT = 30.0  # seconds, on connect and on each read
LIMIT_EXCEEDED = -32005
_QUANTITY = re.compile(r"0x[0-9a-fA-F]+")


def _basic_auth(url) -> str:
    """`Basic` credentials from the user and password of a split URL."""
    import base64
    from urllib.parse import unquote

    user_password = f"{unquote(url.username)}:{unquote(url.password or '')}"
    return "Basic " + base64.b64encode(user_password.encode()).decode()


class RpcClient:
    """JSON-RPC batches to one endpoint over one persistent connection."""

    def __init__(self, endpoint: str):
        # loaded only when a run talks to a node; http.client loads ssl
        import http.client
        import urllib.request
        from urllib.parse import urlsplit

        url = urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigError(f"rpc_endpoint {endpoint!r} is not an http or https URL")
        host = url.netloc.rpartition("@")[2]
        self._target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json", "Accept-Encoding": "gzip"}
        if url.username is not None:
            self._headers["Authorization"] = _basic_auth(url)
        connection = (http.client.HTTPSConnection if url.scheme == "https"
                      else http.client.HTTPConnection)
        proxy = urllib.request.getproxies().get(url.scheme)
        if not proxy or urllib.request.proxy_bypass(host):
            self._conn = connection(host, timeout=TIMEOUT)
        else:
            proxy = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            proxy_host = proxy.netloc.rpartition("@")[2]
            proxy_headers = {}
            if proxy.username is not None:
                proxy_headers["Proxy-Authorization"] = _basic_auth(proxy)
            if url.scheme == "https":
                self._conn = connection(proxy_host, timeout=TIMEOUT)
                self._conn.set_tunnel(host, headers=proxy_headers)
            else:
                to_proxy = (http.client.HTTPSConnection if proxy.scheme == "https"
                            else http.client.HTTPConnection)
                self._conn = to_proxy(proxy_host, timeout=TIMEOUT)
                self._target = f"http://{host}{self._target}"
                self._headers.update(proxy_headers)
        self._next_id = 1

    def close(self) -> None:
        self._conn.close()

    def batch(self, calls: Sequence[tuple[str, list]], *, resume_block: int) -> list:
        """Send (method, params) calls as one batch; results in call order."""
        return [_result(reply) for reply in self.replies(calls, resume_block=resume_block)]

    def replies(self, calls: Sequence[tuple[str, list]], *, resume_block: int) -> list[dict]:
        """Send (method, params) calls as one batch; the reply objects, error
        replies included, in call order."""
        import gzip
        import http.client
        import select
        import zlib

        payload = [
            {"jsonrpc": "2.0", "id": self._next_id + i, "method": method, "params": params}
            for i, (method, params) in enumerate(calls)
        ]
        self._next_id += len(payload)

        def failed(reason) -> RpcTransportError:
            return RpcTransportError(
                f"batch of {len(payload)} {payload[0]['method']} calls failed: {reason}",
                resume_block,
            )

        body = json.dumps(payload, separators=(",", ":")).encode()
        sock = self._conn.sock
        if sock is not None and select.select([sock], [], [], 0)[0]:
            # an idle connection turns readable only when the node closed it
            self._conn.close()
        reused = self._conn.sock is not None
        while True:
            response = None
            try:
                self._conn.request("POST", self._target, body, self._headers)
                response = self._conn.getresponse()
                raw = response.read()
                if response.getheader("Content-Encoding", "").lower() == "gzip":
                    raw = gzip.decompress(raw)
                break
            except (http.client.HTTPException, OSError, EOFError, zlib.error) as exc:
                self._conn.close()
                if not reused or response is not None:
                    raise failed(exc) from exc
                # the node closed the kept-alive connection as the batch went
                # out; its calls are reads, so send them once more, afresh
                reused = False
        if not 200 <= response.status < 300:
            raise failed(f"HTTP {response.status} {response.reason}")
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise failed(f"reply is not JSON: {exc}") from exc
        if not isinstance(body, list):
            error = (body.get("error") if isinstance(body, dict) else None) or {}
            raise RpcServerError(
                error.get("code", -1), error.get("message", "batch reply is not a list")
            )
        by_id = {reply.get("id"): reply for reply in body if isinstance(reply, dict)}
        for call in payload:
            if call["id"] not in by_id:
                raise RpcServerError(-1, f"no reply to {call['method']} call {call['id']}")
        return [by_id[call["id"]] for call in payload]


def _over_result_limit(error: dict) -> bool:
    """Whether an error object reports a result over the node's cap: code
    -32005 without the word "rate", which rate limits sent under the same
    code carry."""
    return (error.get("code") == LIMIT_EXCEEDED
            and re.search(r"\brate\b", str(error.get("message")), re.IGNORECASE) is None)


def _result(reply: dict):
    """The result of one reply object; an error object is terminal."""
    error = reply.get("error")
    if error:
        raise RpcServerError(error.get("code", -1), error.get("message", "unknown"))
    return reply.get("result")


def _quantity(obj: dict, name: str, where: str) -> int:
    """A hex quantity field of a node reply, such as '0x1b4' -> 436: `0x`
    and ASCII hex digits only, no blanks, `_` or other scripts' digits."""
    value = obj.get(name)
    if isinstance(value, str) and _QUANTITY.fullmatch(value):
        return int(value, 16)
    raise RpcServerError(-1, f"{where}: {name} is not a hex quantity: {value!r}")


def _log_fields(obj) -> tuple:
    """The RawLog fields but the timestamp, in order, of one eth_getLogs entry."""
    if not isinstance(obj, dict):
        raise RpcServerError(-1, f"eth_getLogs entry is not an object: {obj!r}")
    block_number = _quantity(obj, "blockNumber", "eth_getLogs entry")
    log_index = _quantity(obj, "logIndex", f"log of block {block_number}")
    where = f"log {log_index} of block {block_number}"
    if obj.get("removed"):
        raise RpcServerError(-1, f"{where} was removed by a reorg")
    topics = obj.get("topics")
    if not isinstance(topics, list):
        raise RpcServerError(-1, f"{where}: topics is not a list: {topics!r}")
    if len(topics) > 4:  # no EVM log has more, and the fixture reader rejects them
        raise RpcServerError(-1, f"{where}: {len(topics)} topics, at most 4 allowed")
    try:
        tx_hash, address, topics, data = decode_hex_fields(
            obj.get("transactionHash"), obj.get("address"), topics, obj.get("data"))
    except ValueError as exc:
        name = "transactionHash" if exc.field == "tx_hash" else exc.field
        raise RpcServerError(-1, f"{where}: {name}: {exc}") from None
    return block_number, tx_hash, log_index, address, topics, data


def fetch_logs(
    endpoint: str,
    block_range: BlockRange,
    registry: ContractRegistry,
    *,
    window_size: int = DEFAULT_WINDOW_SIZE,
    resume_from: int | None = None,
) -> list[RawLog]:
    """Fetch all registry-relevant logs in the range, in global order.

    `window_size` is the first and largest window size: a -32005 reply
    halves the size, and a batch in which every window fit doubles it
    again, up to `window_size`.
    `resume_from` restarts a failed fetch at the window a previous
    RpcTransportError reported; no partial output is ever returned.
    """
    if window_size < 1:
        raise ValueError("window_size must be positive")
    start = block_range.start if resume_from is None else resume_from
    if start not in block_range:
        raise ValueError(
            f"resume_from {resume_from} lies outside the block range "
            f"{block_range.start}..{block_range.end}"
        )
    log_filter = {
        "address": sorted(to_hex(a) for a in registry.addresses),
        "topics": [sorted(to_hex(t) for t in registry.all_topic0)],
    }
    size = window_size
    timestamps: dict[int, int] = {}
    collected: list[RawLog] = []
    with closing(RpcClient(endpoint)) as client:
        while start <= block_range.end:
            windows = [
                (first, min(first + size - 1, block_range.end))
                for first in range(start, block_range.end + 1, size)[:BATCH_CALLS]
            ]
            calls = [
                ("eth_getLogs", [{"fromBlock": hex(first), "toBlock": hex(last), **log_filter}])
                for first, last in windows
            ]
            fields = []
            next_start = windows[-1][1] + 1
            for (first, last), reply in zip(windows, client.replies(calls, resume_block=start)):
                error = reply.get("error")
                if error and _over_result_limit(error) and last > first:
                    # too many logs in this window: it and the windows
                    # after it go again at half its size
                    size = (last - first + 1) // 2
                    next_start = first
                    break
                if error and last > first:
                    raise RpcServerError(
                        error.get("code", -1),
                        f"eth_getLogs of blocks {first}..{last}: {error.get('message')} "
                        "(if the node caps the block range, set rpc_window to that cap)",
                    )
                result = _result(reply)
                if not isinstance(result, list):
                    raise RpcServerError(-1, "eth_getLogs did not return a list")
                fields.extend(_log_fields(obj) for obj in result)
            else:
                # every window fit: a dense stretch may be over
                size = min(2 * size, window_size)

            blocks = sorted({f[0] for f in fields} - timestamps.keys())
            for j in range(0, len(blocks), BATCH_CALLS):
                chunk = blocks[j:j + BATCH_CALLS]
                calls = [("eth_getBlockByNumber", [hex(number), False]) for number in chunk]
                for number, block in zip(chunk, client.batch(calls, resume_block=start)):
                    if not isinstance(block, dict):
                        raise RpcServerError(-1, f"no block data for {number}")
                    timestamps[number] = _quantity(block, "timestamp", f"block {number}")

            collected.extend(RawLog(*f, timestamps[f[0]]) for f in fields)
            start = next_start
    return filter_logs(collected, registry, block_range)
