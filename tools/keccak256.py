"""Minimal keccak-256 (legacy 0x01 padding, as used by Ethereum).

Development tool only: used to derive the event-topic constants checked into
config/registry.json, and by tests/test_registry.py to check them. Not
imported by the package. hashlib's sha3_256 uses NIST padding (0x06) and
produces different digests, hence this file.

Self-checks at import time against four independently published event topics.
"""

ROUND_CONSTANTS = [
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
]

ROTATION = [
    [0, 36, 3, 41, 18],
    [1, 44, 10, 45, 2],
    [62, 6, 43, 15, 61],
    [28, 55, 25, 21, 56],
    [27, 20, 39, 8, 14],
]

MASK = (1 << 64) - 1


def _rotl(x, n):
    return ((x << n) | (x >> (64 - n))) & MASK


def _keccak_f(state):
    for rc in ROUND_CONSTANTS:
        # theta
        c = [state[x][0] ^ state[x][1] ^ state[x][2] ^ state[x][3] ^ state[x][4] for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rotl(c[(x + 1) % 5], 1) for x in range(5)]
        for x in range(5):
            for y in range(5):
                state[x][y] ^= d[x]
        # rho + pi
        b = [[0] * 5 for _ in range(5)]
        for x in range(5):
            for y in range(5):
                b[y][(2 * x + 3 * y) % 5] = _rotl(state[x][y], ROTATION[x][y])
        # chi
        for x in range(5):
            for y in range(5):
                state[x][y] = b[x][y] ^ ((~b[(x + 1) % 5][y]) & b[(x + 2) % 5][y])
        # iota
        state[0][0] ^= rc
    return state


def keccak256(data: bytes) -> bytes:
    rate = 136  # 1088-bit rate for 256-bit output
    state = [[0] * 5 for _ in range(5)]
    # pad10*1 with the legacy 0x01 domain byte
    padded = bytearray(data)
    padded.append(0x01)
    while len(padded) % rate != 0:
        padded.append(0x00)
    padded[-1] |= 0x80

    for block_start in range(0, len(padded), rate):
        block = padded[block_start:block_start + rate]
        for i in range(rate // 8):
            lane = int.from_bytes(block[i * 8:(i + 1) * 8], "little")
            x, y = i % 5, i // 5
            state[x][y] ^= lane
        _keccak_f(state)

    out = bytearray()
    for y in range(5):
        for x in range(5):
            out += state[x][y].to_bytes(8, "little")
            if len(out) >= 32:
                return bytes(out[:32])
    raise AssertionError("unreachable")


def event_topic(signature: str) -> str:
    return "0x" + keccak256(signature.encode("ascii")).hex()


def selector_topic(signature: str) -> str:
    """4-byte selector left-aligned in a 32-byte word (DSNote-style topic0)."""
    sel = keccak256(signature.encode("ascii"))[:4]
    return "0x" + sel.hex() + "00" * 28


_VECTORS = {
    "Transfer(address,address,uint256)":
        "0xddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef",
    "Approval(address,address,uint256)":
        "0x8c5be1e5ebec7d5bd14f71427d1e84f3dd0314c0f7b2291e5b200ac8c7c3b925",
    "Mint(address,uint256,uint256)":
        "0x4c209b5fc8ad50758f13e2e1088ba56a560dff690a1c6fef26394f4c03821c4f",
    "Swap(address,uint256,uint256,uint256,uint256,address)":
        "0xd78ad95fa46c994b6551d0da85fc275fe613ce37657fb8d5e3d130840159d822",
}

for _sig, _expected in _VECTORS.items():
    assert event_topic(_sig) == _expected, f"keccak self-check failed for {_sig}"


if __name__ == "__main__":
    import sys

    for sig in sys.argv[1:]:
        print(f"{event_topic(sig)}  {sig}")
