import contextlib
import csv
import inspect
import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from dfcflow import cli, ingest, synth, tables
from dfcflow.cli import main, write_checkpoint
from dfcflow.errors import DfcError
from dfcflow.market import HOUR, PriceSeries
from dfcflow.registry import CANONICAL_KINDS, ContractRegistry
from dfcflow.util import to_hex

from tests.conftest import DATA_DIR, GOLDEN_DIR, REGISTRY_PATH, REPO_ROOT
from tests.test_market import T0, _CandleHandler, candle_server  # noqa: F401 (a fixture)
from tools.gen_fixture import generate_fixture, main as gen_fixture_main

REPORT_FILES = (
    "monthly_dfc.csv",
    "protocol_breakdown.csv",
    "correlations.csv",
    "summary.csv",
)
CHECKPOINT_FILES = (
    "logs.jsonl",
    "events.csv",
    "vaults.csv",
    "approvals.csv",
    "partition.csv",
    "flows.csv",
)
ALL_OUTPUTS = CHECKPOINT_FILES + REPORT_FILES + ("cluster_comparison.csv",)
STAGES = ("ingest", "decode", "cluster", "track", "report", "compare-clusters")


def write_config(tmp_path, output, **overrides):
    doc = {
        "registry": str(REGISTRY_PATH),
        "from_block": 10_000_000,
        "to_block": 10_700_000,
        "fixture": str(DATA_DIR / "fixture_logs.jsonl"),
        "prices": str(DATA_DIR / "prices.csv"),
        "denylist": str(DATA_DIR / "denylist.csv"),
        "output": str(output),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def run(*argv):
    return main([str(a) for a in argv])


def assert_all_matches_staged(tmp_path, **overrides):
    """`all` (stages hand values over in memory) and the stages run one by
    one (each reads the previous checkpoints) write the same bytes."""
    out_all = tmp_path / "out_all"
    out_staged = tmp_path / "out_staged"
    config = write_config(tmp_path, out_all, **overrides)
    assert run("all", "--config", config, "--quiet") == 0
    config2 = write_config(tmp_path, out_staged, **overrides)
    for stage in STAGES:
        assert run(stage, "--config", config2, "--quiet") == 0
    for name in ALL_OUTPUTS:
        assert (out_all / name).read_bytes() == (out_staged / name).read_bytes(), name
    assert sorted(p.name for p in out_all.iterdir()) == sorted(ALL_OUTPUTS)
    return out_all


def test_all_then_staged_outputs_are_identical(tmp_path):
    assert_all_matches_staged(tmp_path)


def test_all_then_staged_identical_on_generated_link_pairs(tmp_path):
    # the partition checkpoint drops per-address activity, so the read-back
    # partition must still route the same flows as the in-memory one
    bundle = generate_fixture(ContractRegistry.from_json_file(REGISTRY_PATH), seed=5)
    ingest.save_fixture(tmp_path / "logs.jsonl", bundle.logs)
    bundle.prices.to_csv(tmp_path / "prices.csv")
    synth.write_denylist_csv(tmp_path / "denylist.csv", bundle.denylist)
    out = assert_all_matches_staged(
        tmp_path,
        to_block=bundle.end_block,
        fixture=str(tmp_path / "logs.jsonl"),
        prices=str(tmp_path / "prices.csv"),
        denylist=str(tmp_path / "denylist.csv"),
    )
    comparison = dict(
        line.split(",") for line in (out / "cluster_comparison.csv").read_text().splitlines()
    )
    assert int(comparison["heuristic_pairs"]) > 0


def write_with_csv_module(table, path, values):
    """`Table.write` by csv.writer alone."""
    rows = values if table.to_row is None else map(table.to_row, values)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.columns)
        writer.writerows(rows)


def test_checkpoints_are_the_csv_and_json_modules_renderings(tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert run("all", "--config", write_config(tmp_path, out), "--quiet") == 0
    lines = (out / "logs.jsonl").read_text(encoding="utf-8").splitlines()
    logs = ingest.load_fixture(out / "logs.jsonl")
    assert len(lines) == len(logs) > 0
    for line, log in zip(lines, logs):
        obj = {"block_number": log.block_number, "timestamp": log.timestamp,
               "tx_hash": to_hex(log.tx_hash), "address": to_hex(log.contract_address),
               "topics": [to_hex(topic) for topic in log.topics], "data": to_hex(log.data),
               "log_index": log.log_index}
        assert line == json.dumps(obj, separators=(",", ":"))
    # each CSV checkpoint, read back and written again by csv.writer
    monkeypatch.setattr(tables.Table, "write", write_with_csv_module)
    for file, _, writer, reader in cli.OUTPUTS.values():
        if file in CHECKPOINT_FILES and file.endswith(".csv"):
            expected = tmp_path / file
            cli._lookup(writer)(expected, cli._lookup(reader)(out / file))
            assert (out / file).read_bytes() == expected.read_bytes(), file
            assert len(expected.read_bytes().splitlines()) > 1, file


def test_repeated_fixture_lines_are_dropped_at_ingest(tmp_path):
    lines = (DATA_DIR / "fixture_logs.jsonl").read_text().splitlines()
    for lineno in (400, 200, 50):
        lines.insert(lineno, lines[lineno - 1])
    doubled = tmp_path / "doubled.jsonl"
    doubled.write_text("\n".join(lines) + "\n")
    clean, dup = tmp_path / "clean", tmp_path / "dup"
    assert run("all", "--config", write_config(tmp_path, clean), "--quiet") == 0
    config = write_config(tmp_path, dup, fixture=str(doubled))
    assert run("all", "--config", config, "--quiet") == 0
    for name in ALL_OUTPUTS:
        assert (clean / name).read_bytes() == (dup / name).read_bytes(), name


def test_conflicting_fixture_lines_fail_ingest_with_line_number(tmp_path, capsys):
    lines = (DATA_DIR / "fixture_logs.jsonl").read_text().splitlines()
    record = json.loads(lines[199])
    record["timestamp"] += 1
    lines.append(json.dumps(record, separators=(",", ":")))
    conflicting = tmp_path / "conflicting.jsonl"
    conflicting.write_text("\n".join(lines) + "\n")
    config = write_config(tmp_path, tmp_path / "out", fixture=str(conflicting))
    assert run("all", "--config", config, "--quiet") == 3
    err = capsys.readouterr().err
    assert f"line {len(lines)}:" in err and "line 200" in err
    assert not (tmp_path / "out" / "logs.jsonl").exists()


def loaded_modules(tmp_path, command, env=None, **config):
    """The modules loaded in a fresh interpreter after `import dfcflow.cli`,
    and after it runs `command` on the bundled fixture (or on what `config`
    overrides), with `env` as its environment."""
    probe = (
        "import json, sys\n"
        "import dfcflow.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
        "code = dfcflow.cli.main(sys.argv[1:])\n"
        "print(json.dumps(sorted(sys.modules)))\n"
        "sys.exit(code)\n"
    )
    config = write_config(tmp_path, tmp_path / "out", **config)
    proc = subprocess.run(
        [sys.executable, "-c", probe, command, "--config", str(config), "--quiet"],
        capture_output=True, text=True, check=True, env=env,
    )
    return [set(json.loads(line)) for line in proc.stdout.splitlines()]


def test_cli_import_loads_no_scipy_numpy_or_requests(tmp_path):
    after_import, after_ingest = loaded_modules(tmp_path, "ingest")
    unwanted = {"scipy", "numpy", "requests", "http.client", "ssl", "gzip"} | {
        f"dfcflow.{stage}" for stage in ("decode", "cluster", "ledger", "market", "report", "tables")
    }
    # neither the import nor `dfcflow ingest` on a fixture loads a later stage
    assert unwanted.isdisjoint(after_import)
    assert unwanted.isdisjoint(after_ingest)
    assert "dfcflow.ingest" in after_import and (tmp_path / "out" / "logs.jsonl").exists()
    # nor a library that only start-up would pay for: the RPC client, the
    # class-building library and what it imports, exact arithmetic, or the
    # forked workers of a run of several stages and their pickling
    unused = {"dataclasses", "inspect", "fractions", "decimal", "dfcflow.rpc",
              "dfcflow.background", "pickle"}
    assert sorted(unused & (after_import | after_ingest)) == []


def test_ingest_from_a_node_loads_no_http_client_ssl_email_or_urllib_request(tmp_path):
    from tests.test_rpc import _serve

    env = {name: value for name, value in os.environ.items()
           if not name.lower().endswith("_proxy")}
    bare = set(json.loads(subprocess.run(
        [sys.executable, "-c", "import json, sys; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout))
    with _serve(ingest.load_fixture(DATA_DIR / "fixture_logs.jsonl")) as (endpoint, state):
        _, after_ingest = loaded_modules(
            tmp_path, "ingest", env, fixture=None, rpc_endpoint=endpoint,
            to_block=10_020_000, rpc_window=5_000,
        )
    assert state.requests > 0 and (tmp_path / "out" / "logs.jsonl").exists()
    # a plain-http fetch with no proxy set needs none of the library's
    # HTTP client, TLS, mail parsing, URL opening or gzip stack
    transport = {"http.client", "ssl", "email", "urllib.request", "gzip"}
    assert sorted(transport & (after_ingest - bare)) == []
    assert "dfcflow.rpc" in after_ingest


def test_all_on_a_fixture_loads_neither_rpc_nor_dataclasses(tmp_path):
    _, after_all = loaded_modules(tmp_path, "all")
    assert "dfcflow.report" in after_all and (tmp_path / "out" / "summary.csv").exists()
    # `fractions` only for `PriceSeries.price_at`, which no stage calls
    unused = {"dataclasses", "inspect", "dfcflow.rpc", "http.client", "fractions"}
    assert sorted(unused & after_all) == []


def test_rerun_reports_cache_hit(tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path, out)
    assert run("ingest", "--config", config) == 0
    first = (out / "logs.jsonl").read_bytes()
    capsys.readouterr()
    assert run("ingest", "--config", config) == 0
    assert "cache hit" in capsys.readouterr().out
    assert (out / "logs.jsonl").read_bytes() == first


# each stage's status line on the bundled fixture and the files it writes,
# in `dfcflow all` order
FIXTURE_TRANSCRIPT = (
    ("ingest", "ingest: 575 of 593 logs kept", ("logs.jsonl",)),
    ("decode", "decode: 517 events (approval=33, collateral_deposit=195, collateral_withdraw=76,"
               " debt_create=66, debt_repay=53, liquidation_excluded=6, not_relevant=10,"
               " swap=127, vault_open=9)", ("events.csv", "vaults.csv", "approvals.csv")),
    ("cluster", "cluster: 15 eligible groups (21 total, 19 link pairs)", ("partition.csv",)),
    ("track", "track: 251 flow records (applied=480, cross_group_repays=6, skipped_unrouted=37)",
     ("flows.csv",)),
    ("report", "report: 4 months, 4 correlation rows", REPORT_FILES),
    ("compare-clusters", "compare-clusters: 22 approval pairs, 19 heuristic pairs, 5 overlapping",
     ("cluster_comparison.csv",)),
)


def transcript(outcome, stages=STAGES, forked=()):
    """The stdout of `stages` when each file write ends in `outcome`: each
    stage's line, then its write lines, except that those of the `forked`
    stages come after the last stage, in stage order."""
    lines, later = [], []
    for stage, line, files in FIXTURE_TRANSCRIPT:
        if stage in stages:
            lines.append(line)
            (later if stage in forked else lines).extend(f"{name}: {outcome}" for name in files)
    return "".join(line + "\n" for line in lines + later)


def test_status_transcript_is_pinned_line_for_line(tmp_path, monkeypatch, capsys, request):
    def stdout(*argv, fork=True):
        capsys.readouterr()
        with monkeypatch.context() as patch:
            if not fork:
                patch.delattr(os, "fork")
            assert run(*argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        return out

    forked = ("ingest", "decode", "track")
    config = write_config(tmp_path, tmp_path / "fork")
    assert stdout("all", "--config", config) == transcript("written", forked=forked)
    assert stdout("all", "--config", config) == transcript("cache hit (unchanged)", forked=forked)
    config = write_config(tmp_path, tmp_path / "inline")
    assert stdout("all", "--config", config, fork=False) == transcript("written")
    config = write_config(tmp_path, tmp_path / "staged")
    for stage in STAGES:
        assert stdout(stage, "--config", config) == transcript("written", (stage,))
    # the candle server's thread would keep `all` from forking, so it starts last
    server = request.getfixturevalue("candle_server")
    target = tmp_path / "fetched.csv"
    config = write_config(tmp_path, tmp_path / "out", prices=str(target), price_fetch={
        "url_template": server + "/candles/{key}",
        "key_map": {"ETH": "ETH-USD", "BTC": "BTC-USD"},
    })
    assert stdout("fetch-prices", "--config", config) == (
        f"fetch-prices: BTC, ETH prices for {target}\nfetched.csv: written\n")


@pytest.mark.parametrize("unbuffered", (True, False), ids=["unbuffered", "buffered"])
def test_closed_stdout_drops_the_status_lines_and_finishes_the_run(tmp_path, unbuffered):
    # as `dfcflow all ... | head -n 1` once `head` has exited
    reference = tmp_path / "reference"
    assert run("all", "--config", write_config(tmp_path, reference), "--quiet") == 0
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    piped = tmp_path / "piped"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dfcflow.cli", "all", "--config", str(write_config(
                tmp_path, piped))],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sorted(p.name for p in piped.iterdir()) == sorted(ALL_OUTPUTS)
    for name in ALL_OUTPUTS:
        assert (piped / name).read_bytes() == (reference / name).read_bytes(), name


def test_stage_counts_add_up_on_the_fixture(tmp_path, candle_server):
    cfg = cli.PipelineConfig.from_file(write_config(tmp_path, tmp_path / "out"))
    registry, prices, denylist = cfg.load_registry(), cfg.load_prices(), cfg.load_denylist()
    counts = {}
    counts["ingest"], logs = cli.stage_ingest(cfg, registry)
    counts["decode"], events, triples, approvals = cli.stage_decode(registry, logs)
    counts["cluster"], partition = cli.stage_cluster(events, triples, denylist)
    counts["track"], flows = cli.stage_track(events, partition, registry, prices)
    counts["report"], *_ = cli.stage_report(flows, events, registry, prices)
    counts["compare-clusters"], _ = cli.stage_compare_clusters(approvals, events, registry,
                                                               denylist)
    fetching = cfg._replace(price_fetch={"url_template": candle_server + "/candles/{key}",
                                         "key_map": {"BTC": "BTC-USD", "ETH": "ETH-USD"}})
    counts["fetch-prices"], _ = cli.cmd_fetch_prices(fetching)
    assert sorted(counts) == sorted(cli.STAGE_FUNCTIONS)
    for stage, named in counts.items():
        assert named and {type(n) for n in named.values()} == {int}, stage

    assert counts["ingest"] == {"read": 593, "out_of_range": 1, "not_registered": 17,
                                "repeats": 0, "kept": 575}
    read, *dropped_and_kept = counts["ingest"].values()
    assert read == sum(dropped_and_kept) and counts["ingest"]["kept"] == len(logs)
    # every log decoded is counted under its kind or the reason it gave none
    decoded = dict(counts["decode"])
    assert decoded.pop("events") == len(events) == 517
    assert sum(decoded.values()) == len(logs)
    assert sum(decoded[kind] for kind in CANONICAL_KINDS) == len(events)
    track = counts["track"]
    assert (track["applied"], track["skipped_unrouted"]) == (480, 37)
    assert track["applied"] + track["skipped_unrouted"] == len(events)
    assert track["flow_records"] == len(flows) <= track["applied"]
    cluster = counts["cluster"]
    assert cluster["eligible_groups"] == len(partition.eligible) <= cluster["groups"]
    compared = counts["compare-clusters"]
    assert compared["overlap_pairs"] <= min(compared["self_approval_pairs"],
                                            compared["heuristic_pairs"])
    assert counts["fetch-prices"] == {"BTC": 3, "ETH": 3}


def test_write_compares_checkpoints_by_content(tmp_path):
    path = tmp_path / "out" / "big.bin"
    # more than one 1 MiB comparison chunk, the two versions differing in the last byte
    old, new = b"x" * (3 << 19) + b"a", b"x" * (3 << 19) + b"b"

    def writer(target, data):
        target.write_bytes(data)

    # True for a write, False for a cache hit
    assert write_checkpoint(path, writer, old) is True
    assert write_checkpoint(path, writer, old) is False
    assert write_checkpoint(path, writer, new) is True
    assert path.read_bytes() == new
    assert sorted(p.name for p in path.parent.iterdir()) == ["big.bin"]


def test_every_stage_input_is_a_known_value():
    known = {"cfg", *cli.INPUTS, *cli.OUTPUTS}
    assert [(stage, name) for stage, (_, _, inputs) in cli.COMMANDS.items()
            for name in inputs if name not in known] == []


def test_each_checkpoint_input_is_given_by_an_earlier_stage():
    given = set()
    for stage in cli.ALL_STAGES:
        assert {name for name in cli.COMMANDS[stage][2] if name in cli.OUTPUTS} <= given, stage
        given |= {name for name, row in cli.OUTPUTS.items() if row[1] == stage}
    # every output but the price file of `fetch-prices`, which `all` does not run
    assert given | {"price_file"} == set(cli.OUTPUTS)


def test_stage_function_arity_matches_its_row():
    assert {stage: len(inspect.signature(fn).parameters)
            for stage, fn in cli.STAGE_FUNCTIONS.items()} == {
        stage: len(cli.COMMANDS[stage][2]) for stage in cli.STAGE_FUNCTIONS}


@pytest.mark.parametrize("command", ("decode", "all"))
def test_stage_outputs_are_written_after_the_stage_returns(tmp_path, monkeypatch, command):
    out = tmp_path / "out"
    config = write_config(tmp_path, out)
    assert run("ingest", "--config", config, "--quiet") == 0
    decode_stage, seen = cli.STAGE_FUNCTIONS["decode"], []

    def stage(*inputs):
        result = decode_stage(*inputs)
        seen.append(sorted(p.name for p in out.iterdir()))
        return result

    monkeypatch.setitem(cli.STAGE_FUNCTIONS, "decode", stage)
    assert run(command, "--config", config, "--quiet") == 0
    # under `all`, ingest's forked writer may be renewing `logs.jsonl` meanwhile
    assert len(seen) == 1 and "logs.jsonl" in seen[0]
    assert set(seen[0]) <= {"logs.jsonl", "logs.jsonl.tmp"}
    assert {"events.csv", "vaults.csv", "approvals.csv"} <= {p.name for p in out.iterdir()}


def test_failed_write_names_the_path_and_leaves_no_tmp(tmp_path):
    path = tmp_path / "flows.csv"

    def writer(target):
        target.write_text("partial")
        raise OSError(28, "No space left on device")

    with pytest.raises(DfcError) as err:
        write_checkpoint(path, writer)
    assert str(err.value) == f"cannot write {path}: No space left on device"
    assert list(tmp_path.iterdir()) == []


def test_unwritable_checkpoint_fails_its_stage_cleanly(tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path, out)
    assert run("ingest", "--config", config, "--quiet") == 0
    (out / "vaults.csv").mkdir()
    capsys.readouterr()
    assert run("decode", "--config", config, "--quiet") == 4
    assert capsys.readouterr().err == (
        f"decode: error: cannot write {out / 'vaults.csv'}: Is a directory\n")
    assert sorted(p.name for p in out.iterdir()) == ["events.csv", "logs.jsonl", "vaults.csv"]


@pytest.mark.parametrize("blocked", (False, True), ids=["written", "unwritable"])
def test_fetch_prices_writes_through_the_checkpoint_path(tmp_path, capsys, candle_server,
                                                        blocked):
    target = tmp_path / "prices.csv"
    if blocked:
        target.mkdir()
    config = write_config(tmp_path, tmp_path / "out", prices=str(target), price_fetch={
        "url_template": candle_server + "/candles/{key}", "key_map": {"BTC": "BTC-USD"},
    })
    code = run("fetch-prices", "--config", config)
    out, err = capsys.readouterr()
    if blocked:
        # its line names the price file, so a failed write leaves it unprinted
        assert (code, out) == (3, "")
        assert err == f"fetch-prices: error: cannot write {target}: Is a directory\n"
    else:
        assert (code, err) == (0, "")
        assert out.splitlines() == [f"fetch-prices: BTC prices for {target}",
                                    "prices.csv: written"]
        assert PriceSeries.from_csv(target).price_at("BTC", T0 + HOUR) == 9001
    assert not (tmp_path / "prices.csv.tmp").exists()


def test_make_goldens_reproduces_the_checked_in_goldens(tmp_path):
    out = tmp_path / "golden"
    subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "make_goldens.py"), str(out)],
        cwd=REPO_ROOT, capture_output=True, check=True,
    )
    names = sorted(p.name for p in GOLDEN_DIR.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


def test_report_without_track_checkpoint_fails(tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path, out)
    assert run("report", "--config", config, "--quiet") == 7
    assert "missing checkpoint" in capsys.readouterr().err


def test_stage_exit_codes_for_missing_checkpoints(tmp_path):
    out = tmp_path / "out"
    config = write_config(tmp_path, out)
    assert run("decode", "--config", config, "--quiet") == 4
    assert run("cluster", "--config", config, "--quiet") == 5
    assert run("track", "--config", config, "--quiet") == 6
    assert run("compare-clusters", "--config", config, "--quiet") == 5


def test_config_with_both_sources_is_rejected(tmp_path, capsys):
    config = write_config(
        tmp_path, tmp_path / "out", rpc_endpoint="http://127.0.0.1:1/rpc"
    )
    assert run("ingest", "--config", config, "--quiet") == 2
    assert "exactly one of fixture / rpc_endpoint" in capsys.readouterr().err


def test_config_requires_prices(tmp_path, capsys):
    out = tmp_path / "out"
    doc = {
        "registry": str(REGISTRY_PATH),
        "from_block": 10_000_000,
        "to_block": 10_700_000,
        "fixture": str(DATA_DIR / "fixture_logs.jsonl"),
        "output": str(out),
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert run("ingest", "--config", config, "--quiet") == 2
    assert "prices" in capsys.readouterr().err


def test_inverted_block_range_is_rejected(tmp_path, capsys):
    config = write_config(tmp_path, tmp_path / "out", from_block=20, to_block=10)
    assert run("ingest", "--config", config, "--quiet") == 2
    assert "from_block" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["rpc_window"])
@pytest.mark.parametrize("value", [0, -3, "x", "5", 2.5, True])
def test_config_integer_fields_must_be_positive(tmp_path, capsys, field, value):
    config = write_config(tmp_path, tmp_path / "out", **{field: value})
    assert run("ingest", "--config", config, "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config field {field!r} must be an integer >= 1")
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value, rule", [
    ("from_block", 10_000_000.9, "an integer >= 0"),
    ("from_block", -5, "an integer >= 0"),
    ("from_block", "10000000", "an integer >= 0"),
    ("from_block", True, "an integer >= 0"),
    ("to_block", 10_700_000.0, "an integer >= 0"),
])
def test_config_flags_and_block_bounds_are_type_checked(tmp_path, capsys, field, value, rule):
    config = write_config(tmp_path, tmp_path / "out", **{field: value})
    assert run("ingest", "--config", config, "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config field {field!r} must be {rule}, got {value!r}")


@pytest.mark.parametrize("key", ["staleness_multipler", "absorb_pair_groups"])
def test_unknown_config_key_is_rejected(tmp_path, capsys, key):
    # a misspelt key, or a knob this version no longer has, must not
    # silently run with the default
    config = write_config(tmp_path, tmp_path / "out", **{key: 50})
    assert run("ingest", "--config", config, "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: unknown config key {key!r} in {config}")
    assert not (tmp_path / "out").exists()


def test_block_overrides_narrow_the_range(tmp_path):
    out = tmp_path / "out"
    config = write_config(tmp_path, out)
    assert run("ingest", "--config", config, "--quiet",
               "--from-block", 10_000_000, "--to-block", 10_050_000) == 0
    narrowed = (out / "logs.jsonl").read_text().splitlines()
    assert run("ingest", "--config", config, "--quiet") == 0
    full = (out / "logs.jsonl").read_text().splitlines()
    assert 0 < len(narrowed) < len(full)


def test_output_override(tmp_path):
    config = write_config(tmp_path, tmp_path / "ignored")
    out = tmp_path / "elsewhere"
    assert run("ingest", "--config", config, "--quiet", "--output", out) == 0
    assert (out / "logs.jsonl").exists()


def test_relative_output_override_is_relative_to_the_working_directory(tmp_path, monkeypatch):
    config_dir = tmp_path / "config"
    config_dir.mkdir()
    config = write_config(config_dir, tmp_path / "ignored")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run("ingest", "--config", config, "--quiet", "--output", "rel_out") == 0
    assert (work / "rel_out" / "logs.jsonl").exists()
    assert not (config_dir / "rel_out").exists()


def test_gen_fixture_is_deterministic(tmp_path):
    # tools/gen_fixture.py took over from the removed `gen-fixture` subcommand
    a = tmp_path / "a"
    b = tmp_path / "b"
    for target in (a, b):
        assert gen_fixture_main(["--seed", "7", "--output", str(target)]) == 0
    for name in ("fixture_logs.jsonl", "prices.csv", "denylist.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_console_entry_point(tmp_path):
    out = tmp_path / "out"
    config = write_config(tmp_path, out)
    proc = subprocess.run(
        [sys.executable, "-m", "dfcflow.cli", "ingest", "--config", str(config)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ingest:" in proc.stdout


def test_track_price_gap_maps_to_ledger_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    truncated = tmp_path / "prices_short.csv"
    with open(DATA_DIR / "prices.csv") as fh:
        lines = fh.read().splitlines()
    truncated.write_text("\n".join(lines[:200]) + "\n")
    config = write_config(tmp_path, out, prices=str(truncated))
    for stage in ("ingest", "decode", "cluster"):
        assert run(stage, "--config", config, "--quiet") == 0
    assert run("track", "--config", config, "--quiet") == 6
    assert "price" in capsys.readouterr().err


def test_missing_fixture_is_named_at_ingest(tmp_path, capsys):
    missing = tmp_path / "absent.jsonl"
    config = write_config(tmp_path, tmp_path / "out", fixture=str(missing))
    assert run("ingest", "--config", config, "--quiet") == 3
    err = capsys.readouterr().err
    assert f"fixture {missing} does not exist" in err
    assert "missing checkpoint" not in err


class _FailingCandles(BaseHTTPRequestHandler):
    def do_GET(self):
        self.send_error(500)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def candle_url(reply):
    """A candle endpoint that refuses connections or answers HTTP 500."""
    if reply == "refused":
        with socket.socket() as sock:  # a port that was free a moment ago
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        yield f"http://127.0.0.1:{port}/candles"
        return
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FailingCandles)
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/candles"
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("reply, reason", [
    ("refused", "Connection refused"),
    ("http-500", "HTTP Error 500"),
], ids=["refused", "http-500"])
def test_unreachable_candle_endpoint_fails_fetch_prices(tmp_path, capsys, reply, reason):
    with candle_url(reply) as url:
        config = write_config(tmp_path, tmp_path / "out", prices=None, price_fetch={
            "url_template": url + "/{key}", "key_map": {"BTC": "BTC-USD"},
        })
        assert run("fetch-prices", "--config", config, "--quiet") == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"fetch-prices: error: BTC candles from {url}/BTC-USD: ")
    assert reason in err
    assert not (tmp_path / "out" / "prices.csv").exists()


def test_bad_candle_template_fails_fetch_prices_with_one_line(tmp_path, capsys, candle_server):
    served = len(_CandleHandler.requested)
    config = write_config(tmp_path, tmp_path / "out", prices=None, price_fetch={
        "url_template": candle_server + "/candles/{key}?start={start}",
        "key_map": {"BTC": "BTC-USD"},
    })
    assert run("fetch-prices", "--config", config, "--quiet") == 3
    assert capsys.readouterr().err == (
        "fetch-prices: error: price_fetch start must be an integer >= 0, got None\n")
    assert len(_CandleHandler.requested) == served
    assert not (tmp_path / "out" / "prices.csv").exists()


def set_cell(index, value):
    """A row edit: the cell at `index` becomes `value(cell)`."""
    def edit(row):
        cells = row.split(",")
        cells[index] = value(cells[index])
        return ",".join(cells)
    return edit


def rename_kind(row):
    return row.replace("kind", "event_kind")


@pytest.mark.parametrize("name, line, edit, stage, code, message", [
    ("events.csv", 1, rename_kind, "cluster", 5, "missing columns ['kind']"),
    ("flows.csv", 3, set_cell(-1, lambda _: "abc"), "report", 7,
     "invalid amount 'abc': expected [-]digits[.digits], at most 36 decimals"),
    ("prices.csv", 5, set_cell(-1, lambda _: "abc"), "track", 6,
     "invalid amount 'abc': expected [-]digits[.digits], at most 36 decimals"),
    ("prices.csv", None, None, "track", 6, "cannot read"),
    ("denylist.csv", None, None, "cluster", 5, "cannot read"),
    # line 6 is a deposit, line 2 a withdrawal and line 5 a swap
    ("events.csv", 6, set_cell(9, lambda cell: "-" + cell), "track", 6,
     "negative amount '-11908056.49'"),
    ("events.csv", 2, set_cell(9, lambda cell: "-" + cell), "track", 6,
     "negative amount '-39172.5'"),
    ("events.csv", 5, set_cell(10, lambda cell: "-" + cell), "cluster", 5,
     "negative amount_received '-122038.922019'"),
    ("prices.csv", 5, set_cell(0, lambda _: "DOGE"), "track", 6, "unknown price key 'DOGE'"),
    ("prices.csv", 5, set_cell(-1, lambda _: "0"), "track", 6,
     "BTC price at 1588600800 is not positive"),
    ("flows.csv", 3, set_cell(8, lambda _: "-5"), "report", 7, "negative debt_amount_usd '-5'"),
    ("flows.csv", 4, set_cell(5, lambda _: "collateral_depositt"), "report", 7,
     "unknown flow kind 'collateral_depositt'"),
    # line 17 is an Aave debt_repay on behalf of another address
    ("events.csv", 17, set_cell(6, lambda _: "0x26b338382fe142af7f310453a524c5d7cc32b0c4"),
     "cluster", 5, "on_behalf_of equals actor '0x26b338382fe142af7f310453a524c5d7cc32b0c4'"),
    ("logs.jsonl", 3, lambda row: row.replace('"timestamp":', '"timestamp":-'), "decode", 4,
     "timestamp must be a non-negative integer"),
], ids=["events-header", "flows-amount", "prices-cell", "prices-missing", "denylist-missing",
        "events-negative-deposit", "events-negative-withdrawal", "events-negative-swap",
        "prices-unknown-key", "prices-not-positive", "flows-negative-usd", "flows-unknown-kind",
        "events-on-behalf-of-actor", "logs-negative-timestamp"])
def test_bad_csv_fails_its_stage_naming_file_and_line(tmp_path, capsys, name, line, edit,
                                                      stage, code, message):
    out = tmp_path / "out"
    inputs = {n: tmp_path / n for n in ("prices.csv", "denylist.csv")}
    for n, path in inputs.items():
        path.write_bytes((DATA_DIR / n).read_bytes())
    config = write_config(tmp_path, out, prices=str(inputs["prices.csv"]),
                          denylist=str(inputs["denylist.csv"]))
    assert run("all", "--config", config, "--quiet") == 0
    path = inputs.get(name, out / name)
    if line is None:
        path.unlink()
        where = f"{path}: "
    else:
        lines = path.read_text().splitlines()
        lines[line - 1] = edit(lines[line - 1])
        path.write_text("\n".join(lines) + "\n")
        where = f"{path}, line {line}: "
    capsys.readouterr()
    assert run(stage, "--config", config, "--quiet") == code
    err = capsys.readouterr().err
    assert err.startswith(f"{stage}: error: {where}")
    assert message in err and "Traceback" not in err


def test_currency_outside_the_registry_fails_track_and_report_naming_the_line(tmp_path, capsys):
    # the valuer and the summary look each currency up in the registry, so
    # the events reader refuses one the vocabulary lacks
    out = tmp_path / "out"
    config = write_config(tmp_path, out)
    assert run("all", "--config", config, "--quiet") == 0
    events = out / "events.csv"
    lines = events.read_text().splitlines()
    lines[2] = set_cell(7, lambda _: "FOO")(lines[2])
    events.write_text("\n".join(lines) + "\n")
    for stage, code in (("track", 6), ("report", 7)):
        capsys.readouterr()
        assert run(stage, "--config", config, "--quiet") == code
        assert capsys.readouterr().err == (
            f"{stage}: error: {events}, line 3: unknown currency 'FOO'\n")


def test_duplicate_price_row_names_the_price_file(tmp_path, capsys):
    out = tmp_path / "out"
    prices = tmp_path / "prices.csv"
    lines = (DATA_DIR / "prices.csv").read_text().splitlines()
    prices.write_text("\n".join(lines[:3] + lines[2:]) + "\n")
    config = write_config(tmp_path, out, prices=str(prices))
    for stage in ("ingest", "decode", "cluster"):
        assert run(stage, "--config", config, "--quiet") == 0
    capsys.readouterr()
    assert run("track", "--config", config, "--quiet") == 6
    err = capsys.readouterr().err
    assert err.startswith(f"track: error: {prices}: ")
    assert "timestamps must be strictly increasing" in err
