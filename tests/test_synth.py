from dfcflow.decode import CANONICAL_KINDS, decode_stream
from dfcflow.ingest import BlockRange, filter_logs, serialize_fixture
from dfcflow.report import month_key
from tools.gen_fixture import generate_fixture, main as gen_fixture_main

from tests.conftest import DATA_DIR


def test_same_seed_is_byte_identical(registry):
    a = generate_fixture(registry, seed=42)
    b = generate_fixture(registry, seed=42)
    assert serialize_fixture(a.logs) == serialize_fixture(b.logs)
    assert a.denylist == b.denylist


def test_different_seeds_differ(registry):
    a = generate_fixture(registry, seed=42)
    b = generate_fixture(registry, seed=43)
    assert serialize_fixture(a.logs) != serialize_fixture(b.logs)


def test_fixture_shape(registry):
    bundle = generate_fixture(registry, seed=42)
    kept = filter_logs(bundle.logs, registry, BlockRange(10_000_000, bundle.end_block))
    assert len(kept) < len(bundle.logs)  # noise and out-of-range logs dropped
    result = decode_stream(kept, registry)
    assert 450 <= len(result.events) <= 650
    for kind in CANONICAL_KINDS:
        assert result.stats.get(kind, 0) > 0, kind
    assert result.stats.get("liquidation_excluded", 0) > 0
    assert result.stats.get("not_relevant", 0) > 0
    assert len(result.vault_triples) >= 5
    assert len(result.approvals) >= 5
    months = {month_key(e.timestamp) for e in result.events}
    assert len(months) >= 3
    # prices cover the whole event span for every key
    for key in ("BTC", "ETH", "USDC", "DAI", "USDT"):
        first, last = bundle.prices.span(key)
        assert first <= min(e.timestamp for e in result.events)
        assert last >= max(e.timestamp for e in result.events)


def test_bundled_data_matches_seed_42(tmp_path):
    # `tools/gen_fixture.py --seed 42 --output data` rewrites data/ byte for byte
    assert gen_fixture_main(["--seed", "42", "--output", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in DATA_DIR.iterdir())
    for path in DATA_DIR.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
