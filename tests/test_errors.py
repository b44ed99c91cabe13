import pickle
from pathlib import Path

import pytest

from dfcflow import errors


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


# at least one instance of every pipeline error, built as the code raising it does
EXAMPLES = [
    errors.DfcError("base"),
    errors.ConfigError("config field 'registry' is required"),
    errors.TableError(Path("out/prices.csv"), "invalid timestamp '+1'", 5),
    errors.TableError("denylist.csv", "cannot read: No such file or directory"),
    errors.ConflictingLogError("two different logs at (block 1, log index 0)"),
    errors.RpcTransportError("timed out", 10_000_123),
    errors.RpcServerError(-32005, "limit exceeded"),
    errors.PriceFetchError("BTC candles from http://127.0.0.1/BTC-USD: HTTP Error 500"),
    errors.DecodeError("short data", "0x" + "ab" * 32, 3),
    errors.DecodeError("short data"),
    errors.SequencingError("event at (5, 0) after (6, 1)"),
    errors.LedgerError("negative balance"),
    errors.ValuationError("ETH", 1_600_000_000, "stale by 9000 s"),
    errors.UndefinedCorrelationError("zero variance"),
    errors.InsufficientDataError("3 paired periods, need 4"),
    errors.MissingCheckpointError(Path("out/events.csv"), "decode"),
]


def test_examples_cover_every_error_type():
    assert {type(e) for e in EXAMPLES} == {errors.DfcError, *subclasses(errors.DfcError)}


@pytest.mark.parametrize("error", EXAMPLES, ids=lambda e: type(e).__name__)
def test_error_survives_pickling(error):
    # how an error raised in a forked worker of `dfcflow all` reaches the parent
    copy = pickle.loads(pickle.dumps(error, pickle.HIGHEST_PROTOCOL))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)
