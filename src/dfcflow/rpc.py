"""Ethereum JSON-RPC log collection over adaptive block windows.

A fetch walks the range in windows of `window_size` blocks (default
100,000, so the 2020–21 range is 41 windows).  The default assumes a
node that takes a window of any length and answers a result over its cap
with JSON-RPC error -32005 ("limit exceeded", EIP-1474), such as "query
returned more than 10000 results".  On that error the window is asked
for again as its two halves, in batches of halves before any new
window, and a half over the cap is split in turn; the replies of the
batch's other windows are kept, so no block range is asked for twice
unless its reply was -32005.  A -32005 on a new window halves the size
of the windows after it, and after a batch of new windows that all fit
the size doubles again, up to `window_size`, so one dense stretch does
not set it for the rest of the range.  A -32005 on a one-block window
is terminal, so a node that answers every call with -32005 fails after
at most ceil(log2(window_size)) + 1 eth_getLogs batches.  A -32005
whose message speaks of a rate ("request rate limited") is a rate limit,
not a result limit, and is terminal at once.  A node that caps the block
range answers an over-long window with some other code (such as
-32602); any other error object is terminal, and on a window wider than
one block its message says to set `rpc_window` to the node's range cap.

Calls travel as JSON-RPC 2.0 batches, a list of calls in one HTTP
request answered with a list of replies: up to `BATCH_CALLS` (100)
eth_getLogs windows per request, then the timestamps of that batch's
blocks not yet seen, up to 100 eth_getBlockByNumber calls per request.
100 calls sits well under geth's default limit of 1,000 calls per
batch.  A node may answer a batch's calls in any order, so replies are
matched by id.

The transport is a small HTTP/1.1 client on the standard library's
`socket`, imported only when a fetch starts.  A fetch keeps one
connection (with TCP_NODELAY) to the endpoint for all its batches, so an
HTTPS node costs one TLS handshake per fetch, not one per batch.  Each
batch is one POST with a Content-Length; the reply's body is framed by
its Content-Length, by `Transfer-Encoding: chunked` or by the
connection's close.  A reply with `Connection: close`, an HTTP/1.0 reply
or a body that ran to the close reopens the connection for the next
batch, and so does a connection the node closed while idle.  Proxies
come from the environment (`http_proxy`, `https_proxy`, `no_proxy`, in
either case, read through `urllib.request.getproxies` and
`proxy_bypass`): an http endpoint is sent to the proxy as an absolute
URI, an https endpoint through a CONNECT tunnel, and credentials in the
proxy URL (or the endpoint URL) go out as HTTP Basic authorization.
`urllib.request` is loaded only when a non-empty `<scheme>_proxy`
variable (in any case) is set, the one place `getproxies` looks on
Linux and other POSIX systems; on macOS and Windows it is always asked,
as it reads the system's proxy settings there too.  `ssl` is loaded
only for an https endpoint or an https proxy; TLS uses the default
`ssl` context: the system trust store, or the one `SSL_CERT_FILE` /
`SSL_CERT_DIR` name.  Requests accept gzip and gzip-encoded replies are
decoded with `zlib`, as nodes commonly compress large eth_getLogs
results.

A connection failure, a timeout (30 s, on connect and on each read), an
HTTP status outside 2xx, a reply outside HTTP/1.1's framing (a
malformed status line, a body shorter than its framing says, or, as in
`http.client`, a status, header or chunk-size line over 65,536 bytes or
more than 100 header fields) and a body that is not JSON are transport
errors.  A batch's logs join the result only once their timestamps have
arrived, so a transport error (`RpcTransportError`) carries the first
window of the failed batch, the lowest block whose logs are not yet in
hand: a caller resumes from there without refetching earlier batches,
and no partial output is ever returned.
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
import os
import re
import sys
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
_DEFAULT_PORTS = {"http": 80, "https": 443}
_UNSAFE = re.compile(r"[^!-~]")  # what a request line or Host header may not hold
# bounds on a reply, as http.client sets them
_MAXLINE = 65536  # bytes in a status, header or chunk-size line
_MAXHEADERS = 100  # header fields


def _head(start: str, headers: dict[str, str]) -> bytes:
    """An HTTP/1.1 request head: the start line, the header fields and the
    blank line that ends them."""
    fields = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    return f"{start} HTTP/1.1\r\n{fields}\r\n".encode("latin-1")


def _basic_auth(url) -> str:
    """`Basic` credentials from the user and password of a split URL."""
    import base64
    from urllib.parse import unquote

    user_password = f"{unquote(url.username)}:{unquote(url.password or '')}"
    return "Basic " + base64.b64encode(user_password.encode()).decode()


def _proxy(scheme: str, host: str) -> str | None:
    """The proxy URL the environment names for an endpoint, or None.

    Except on macOS and Windows, where it also reads the system settings,
    `getproxies` finds a proxy for `scheme` only in a non-empty
    `<scheme>_proxy` variable (in any case), so urllib.request is loaded
    only where one is set."""
    name = f"{scheme}_proxy"
    if sys.platform not in ("darwin", "win32") and not any(
            value and key.lower() == name for key, value in os.environ.items()):
        return None
    import urllib.request

    proxy = urllib.request.getproxies().get(scheme)
    if not proxy or urllib.request.proxy_bypass(host):
        return None
    return proxy


class _BadReply(Exception):
    """A reply outside HTTP/1.1's framing."""


def _line(file) -> bytes:
    line = file.readline(_MAXLINE + 1)
    if len(line) > _MAXLINE:
        raise _BadReply(f"reply line longer than {_MAXLINE} bytes")
    return line


def _read_head(file) -> tuple[str, int, str, dict[str, str]]:
    """The version, status, reason and header fields (by lower-case name,
    repeats joined with ", ") of a reply; 1xx interim replies are skipped."""
    while True:
        line = _line(file)
        version, _, rest = line.decode("latin-1").rstrip("\r\n").partition(" ")
        code, _, reason = rest.partition(" ")
        if version not in ("HTTP/1.0", "HTTP/1.1") or not (
                len(code) == 3 and code.isascii() and code.isdigit()):
            raise _BadReply(f"malformed status line {line[:80]!r}")
        headers: dict[str, str] = {}
        for _ in range(_MAXHEADERS + 1):
            field = _line(file)
            if field in (b"\r\n", b"\n"):
                break
            if not field:
                raise _BadReply("reply ended inside its header")
            name, _, value = field.decode("latin-1").partition(":")
            name, value = name.strip().lower(), value.strip()
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
        else:
            raise _BadReply(f"more than {_MAXHEADERS} header fields")
        if code[0] != "1":
            return version, int(code), reason.strip(), headers


def _exactly(file, size: int) -> bytes:
    """`size` bytes of a body, read at most 1 MiB at a time, so that a
    framing that overstates the body cannot make the client allocate it
    up front."""
    parts, got = [], 0
    while got < size:
        part = file.read(min(size - got, 1 << 20))
        if not part:
            raise _BadReply(f"reply body ended after {got} of {size} bytes")
        parts.append(part)
        got += len(part)
    return b"".join(parts)


def _read_body(file, status: int, headers: dict[str, str]) -> tuple[bytes, bool]:
    """A reply's body, and whether it ran to the connection's close."""
    if status in (204, 304):  # replies that have no body
        return b"", False
    if "chunked" in headers.get("transfer-encoding", "").lower():
        chunks = []
        while True:
            line = _line(file)
            digits = line.partition(b";")[0].strip()
            if not digits or digits.strip(b"0123456789abcdefABCDEF"):
                raise _BadReply(f"malformed chunk size line {line[:80]!r}")
            size = int(digits, 16)
            if not size:
                break
            chunks.append(_exactly(file, size))
            if _line(file) not in (b"\r\n", b"\n"):
                raise _BadReply("chunk not followed by a line end")
        while (line := _line(file)) not in (b"\r\n", b"\n"):  # the trailer
            if not line:
                raise _BadReply("reply ended inside its trailer")
        return b"".join(chunks), False
    length = headers.get("content-length")
    if length is None:
        return file.read(), True
    if not (length.isascii() and length.isdigit()):
        raise _BadReply(f"malformed Content-Length {length[:80]!r}")
    return _exactly(file, int(length)), False


def _gunzip(data: bytes) -> bytes:
    """A gzip body decoded, every member of it, as gzip.decompress does."""
    import zlib

    out = []
    try:
        while data:
            member = zlib.decompressobj(16 + zlib.MAX_WBITS)
            out.append(member.decompress(data))
            if not member.eof:
                raise _BadReply("gzip body is truncated")
            data = member.unused_data.lstrip(b"\0")
    except zlib.error as exc:
        raise _BadReply(f"malformed gzip body: {exc}") from None
    return b"".join(out)


class RpcClient:
    """JSON-RPC batches to one endpoint over one persistent HTTP/1.1
    connection."""

    def __init__(self, endpoint: str):
        from urllib.parse import urlsplit

        url = urlsplit(endpoint)
        host = url.netloc.rpartition("@")[2]
        target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        try:
            port = _DEFAULT_PORTS.get(url.scheme) if url.port is None else url.port
        except ValueError:  # a port that is not a number in 0..65535
            port = None
        if (url.scheme not in _DEFAULT_PORTS or port is None or not url.hostname
                or _UNSAFE.search(host + target)):
            raise ConfigError(f"rpc_endpoint {endpoint!r} is not an http or https URL")
        headers = {"Host": host, "Content-Type": "application/json", "Accept-Encoding": "gzip"}
        if url.username is not None:
            headers["Authorization"] = _basic_auth(url)
        # where the connection goes; an ASCII host as bytes skips the idna codec
        self._address = (url.hostname.encode(), port)
        # the host names TLS checks: the node's, and an https proxy's
        self._tls_to = url.hostname if url.scheme == "https" else None
        self._proxy_tls_to = None
        self._tunnel = None  # the CONNECT request that opens a tunnel to the node
        proxy = _proxy(url.scheme, host)
        if proxy is not None:
            proxy = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            authorization = {}
            if proxy.username is not None:
                authorization["Proxy-Authorization"] = _basic_auth(proxy)
            try:
                proxy_port = proxy.port or _DEFAULT_PORTS.get(proxy.scheme, 80)
            except ValueError:  # a port that is not a number in 0..65535
                raise ConfigError(
                    f"the {url.scheme} proxy {proxy.geturl()!r} has a bad port") from None
            self._address = (proxy.hostname or "", proxy_port)
            if url.scheme == "https":
                authority = f"{host}:{port}" if url.port is None else host
                self._tunnel = _head(f"CONNECT {authority}", {"Host": authority, **authorization})
            else:  # an absolute URI to the proxy, over TLS to an https one
                self._proxy_tls_to = proxy.hostname if proxy.scheme == "https" else None
                target = f"http://{host}{target}"
                headers.update(authorization)
        # each batch's request is this head, its body's length, a blank line and the body
        self._request = _head(f"POST {target}", headers)[:-2] + b"Content-Length: "
        self._context = None  # the ssl context, made at the first TLS handshake
        self._sock = self._file = None
        self._next_id = 1

    def close(self) -> None:
        if self._sock is not None:
            self._file.close()
            self._sock.close()
            self._sock = self._file = None

    def _tls(self, sock, hostname: str):
        import ssl

        if self._context is None:
            self._context = ssl.create_default_context()
        return self._context.wrap_socket(sock, server_hostname=hostname)

    def _open(self) -> None:
        import socket

        sock = socket.create_connection(self._address, timeout=TIMEOUT)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._proxy_tls_to is not None:
                sock = self._tls(sock, self._proxy_tls_to)
            if self._tunnel is not None:
                sock.sendall(self._tunnel)
                with sock.makefile("rb") as file:
                    _, status, reason, _ = _read_head(file)
                if status != 200:
                    raise OSError(f"proxy tunnel failed: {status} {reason}")
            if self._tls_to is not None:
                sock = self._tls(sock, self._tls_to)
            self._file = sock.makefile("rb")
        except BaseException:
            sock.close()
            raise
        self._sock = sock

    def batch(self, calls: Sequence[tuple[str, list]], *, resume_block: int) -> list:
        """Send (method, params) calls as one batch; results in call order."""
        return [_result(reply) for reply in self.replies(calls, resume_block=resume_block)]

    def replies(self, calls: Sequence[tuple[str, list]], *, resume_block: int) -> list[dict]:
        """Send (method, params) calls as one batch; the reply objects, error
        replies included, in call order."""
        import select

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
        request = self._request + b"%d\r\n\r\n" % len(body) + body
        if self._sock is not None and select.select([self._sock], [], [], 0)[0]:
            # an idle connection turns readable only when the node closed it
            self.close()
        reused = self._sock is not None
        while True:
            try:
                if self._sock is None:
                    self._open()
                self._sock.sendall(request)
                if not self._file.peek(1):
                    raise ConnectionError("the node closed the connection without a reply")
                break
            except (OSError, _BadReply) as exc:
                self.close()
                if not reused:
                    raise failed(exc) from exc
                # the node closed the kept-alive connection as the batch went
                # out; its calls are reads, so send them once more, afresh
                reused = False
        try:
            version, status, reason, headers = _read_head(self._file)
            raw, to_close = _read_body(self._file, status, headers)
            if headers.get("content-encoding", "").lower() == "gzip":
                raw = _gunzip(raw)
        except (OSError, _BadReply) as exc:
            self.close()
            raise failed(exc) from exc
        if to_close or version == "HTTP/1.0" or "close" in headers.get("connection", "").lower():
            self.close()
        if not 200 <= status < 300:
            raise failed(f"HTTP {status} {reason}")
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
    to a new window halves the size, and a batch of new windows that all
    fit doubles it again, up to `window_size`.
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
    split: list[tuple[int, int]] = []  # halves of windows over the node's cap, in order
    timestamps: dict[int, int] = {}
    collected: list[RawLog] = []
    with closing(RpcClient(endpoint)) as client:
        while split or start <= block_range.end:
            fresh = not split
            if fresh:
                windows = [
                    (first, min(first + size - 1, block_range.end))
                    for first in range(start, block_range.end + 1, size)[:BATCH_CALLS]
                ]
                start = windows[-1][1] + 1
            else:
                # halves go first, in batches of their own: they lie below
                # every block not yet asked for
                windows, split = split[:BATCH_CALLS], split[BATCH_CALLS:]
            calls = [
                ("eth_getLogs", [{"fromBlock": hex(first), "toBlock": hex(last), **log_filter}])
                for first, last in windows
            ]
            fields = []
            halves = []
            resume = windows[0][0]
            for (first, last), reply in zip(windows, client.replies(calls, resume_block=resume)):
                error = reply.get("error")
                if error and _over_result_limit(error) and last > first:
                    # too many logs in this window: its two halves go again,
                    # and new windows are at most half its size
                    half = (last - first + 1) // 2
                    if fresh:
                        size = min(size, half)
                    halves += [(first, first + half - 1), (first + half, last)]
                    continue
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
            # the halves lie inside this batch's windows, so below the rest
            split = halves + split
            if fresh and not halves:
                # every window fit: a dense stretch may be over
                size = min(2 * size, window_size)

            blocks = sorted({f[0] for f in fields} - timestamps.keys())
            for j in range(0, len(blocks), BATCH_CALLS):
                chunk = blocks[j:j + BATCH_CALLS]
                calls = [("eth_getBlockByNumber", [hex(number), False]) for number in chunk]
                for number, block in zip(chunk, client.batch(calls, resume_block=resume)):
                    if not isinstance(block, dict):
                        raise RpcServerError(-1, f"no block data for {number}")
                    timestamps[number] = _quantity(block, "timestamp", f"block {number}")

            collected.extend(RawLog(*f, timestamps[f[0]]) for f in fields)
    return filter_logs(collected, registry, block_range)
