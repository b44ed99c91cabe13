"""`dfcflow all` with forked workers (`dfcflow.background`) against the
same run inline: the same bytes, lines, exit codes and errors, no child
process and no `.tmp` file left behind."""

import gc
import os
import shutil
import threading

import pytest

from dfcflow import background, cli
from dfcflow.cli import main

from tests.conftest import DATA_DIR
from tests.test_cli import ALL_OUTPUTS, write_config

MODES = ("fork", "inline")


def run_all(monkeypatch, capsys, config, mode, forks=None):
    """`dfcflow all` in `mode`: its exit code, stdout and stderr.  Each fork
    appends "fork" to `forks`.  Fails if a child process of the run is
    left."""
    capsys.readouterr()
    forks = [] if forks is None else forks
    fork = os.fork

    def counting_fork():
        forks.append("fork")
        return fork()

    with monkeypatch.context() as patch:
        if mode == "fork":
            assert background.can_fork()
            patch.setattr(os, "fork", counting_fork)
        else:
            patch.delattr(os, "fork")
        code = main(["all", "--config", str(config)])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert bool(forks) == (mode == "fork")
    out, err = capsys.readouterr()
    return code, out, err


def test_fork_and_inline_write_the_same_bytes_and_lines(tmp_path, monkeypatch, capsys):
    results = {}
    for mode in MODES:
        config = write_config(tmp_path, tmp_path / mode)
        code, out, err = run_all(monkeypatch, capsys, config, mode)
        assert code == 0 and err == ""
        results[mode] = sorted(out.splitlines())
    assert results["fork"] == results["inline"]
    assert sorted(p.name for p in (tmp_path / "fork").iterdir()) == sorted(ALL_OUTPUTS)
    for name in ALL_OUTPUTS:
        assert (tmp_path / "fork" / name).read_bytes() == (tmp_path / "inline" / name).read_bytes()


def test_one_price_reader_and_one_writer_per_writer_stage(tmp_path, monkeypatch, capsys):
    events, decode = [], cli.STAGE_FUNCTIONS["decode"]

    def stage(*inputs):
        events.append("decode")
        return decode(*inputs)

    monkeypatch.setitem(cli.STAGE_FUNCTIONS, "decode", stage)
    config = write_config(tmp_path, tmp_path / "out")
    code, _, err = run_all(monkeypatch, capsys, config, "fork", events)
    assert code == 0 and err == ""
    assert cli.WRITER_STAGES == {"ingest", "decode", "track"}
    # the price reader and ingest's writer, then the writers of decode and track
    assert events == ["fork", "fork", "decode", "fork", "fork"]


@pytest.mark.parametrize("enabled", (True, False))
def test_gc_is_unfrozen_and_left_as_found(tmp_path, monkeypatch, capsys, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        config = write_config(tmp_path, tmp_path / "out")
        code, _, err = run_all(monkeypatch, capsys, config, "fork")
        assert code == 0 and err == ""
        assert gc.get_freeze_count() == 0
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_inline_while_another_thread_is_alive():
    assert background.can_fork()
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not background.can_fork()
    finally:
        release.set()
        thread.join(timeout=5)
    assert not thread.is_alive()


def bad_price_cell(tmp_path):
    prices = tmp_path / "prices.csv"
    lines = (DATA_DIR / "prices.csv").read_text().splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0] + ",abc"
    prices.write_text("\n".join(lines) + "\n")
    return {"prices": str(prices)}


def checkpoint_is_a_directory(*names):
    """Each named checkpoint path holds a directory, so moving the new file
    into place fails."""
    def make(tmp_path):
        for name in names:
            (tmp_path / "out" / name).mkdir(parents=True)
        return {}
    return make


# name -> (what the run is given, its exit code and the start of its
# stderr); the run's output directory is `out`
FAILURES = {
    "ingest-missing-fixture": (
        lambda tmp_path: {"fixture": str(tmp_path / "absent.jsonl")}, 3,
        "ingest: error: fixture {tmp}/absent.jsonl does not exist"),
    "cluster-missing-denylist": (
        lambda tmp_path: {"denylist": str(tmp_path / "absent.csv")}, 5,
        "cluster: error: {tmp}/absent.csv: cannot read"),
    "track-bad-price-cell": (
        bad_price_cell, 6,
        "track: error: {tmp}/prices.csv, line 5:"
        " invalid amount 'abc': expected [-]digits[.digits], at most 36 decimals"),
    "track-missing-price-file": (
        lambda tmp_path: {"prices": str(tmp_path / "absent.csv")}, 6,
        "track: error: {tmp}/absent.csv: cannot read"),
    "track-no-price-file": (
        lambda tmp_path: {"prices": None, "price_fetch": {"url_template": "x", "key_map": {}}},
        6, "track: error: no price file configured; run fetch-prices first"),
    "decode-checkpoint-unwritable": (
        checkpoint_is_a_directory("vaults.csv"), 4,
        "decode: error: cannot write {tmp}/out/vaults.csv: Is a directory\n"),
    # the earliest failure wins: the ingest write, not the decode write or track
    "earliest-of-several": (
        lambda tmp_path: checkpoint_is_a_directory("logs.jsonl", "events.csv")(tmp_path)
        | bad_price_cell(tmp_path), 3,
        "ingest: error: cannot write {tmp}/out/logs.jsonl: Is a directory\n"),
}


@pytest.mark.parametrize("name", FAILURES)
def test_failures_surface_as_inline(tmp_path, monkeypatch, capsys, name):
    given, code, err_start = FAILURES[name]
    expected = {}
    for mode in MODES:
        shutil.rmtree(tmp_path, ignore_errors=True)
        tmp_path.mkdir()
        config = write_config(tmp_path, tmp_path / "out", **given(tmp_path))
        got, _, err = run_all(monkeypatch, capsys, config, mode)
        assert got == code
        assert err.startswith(err_start.format(tmp=tmp_path)) and err.count("\n") == 1
        assert not list((tmp_path / "out").glob("*.tmp"))
        expected[mode] = got, err
    assert expected["fork"] == expected["inline"]
