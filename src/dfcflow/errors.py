"""Exception types shared across the pipeline stages.

Every `DfcError` pickles to the same type, message and attributes, so an
error raised in a forked worker of `dfcflow all` is re-raised in the
parent as it would have been inline.
"""

import copyreg


class DfcError(Exception):
    """Base class for all pipeline errors."""

    def __reduce__(self):
        # rebuilt by __new__ without __init__, whose arguments subclasses
        # format into the message; the attributes come back as state
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigError(DfcError):
    """Invalid pipeline or registry configuration."""


class TableError(DfcError):
    """An input file could not be read: it is missing or unreadable, or a
    CSV file lacks a column, or a row or fixture line is bad.  Names the
    file and, where known, the line."""

    def __init__(self, path, message: str, line: int | None = None):
        where = f"{path}, line {line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line


class ConflictingLogError(DfcError):
    """Two different log records claim the same (block_number, log_index)."""


class RpcTransportError(DfcError):
    """Transport-level RPC failure; retryable from ``resume_from_block``."""

    def __init__(self, message: str, resume_from_block: int):
        super().__init__(f"{message} (resume from block {resume_from_block})")
        self.resume_from_block = resume_from_block


class RpcServerError(DfcError):
    """The node returned a JSON-RPC error object; not retryable."""

    def __init__(self, code: int, message: str):
        super().__init__(f"RPC error {code}: {message}")
        self.code = code


class PriceFetchError(DfcError):
    """The candle endpoint could not be reached or gave an unusable reply."""


class DecodeError(DfcError):
    """A registry-matched log could not be decoded."""

    def __init__(self, message: str, tx_hash: str = "", log_index: int = -1):
        if tx_hash:
            message = f"{message} (tx {tx_hash}, log {log_index})"
        super().__init__(message)
        self.tx_hash = tx_hash
        self.log_index = log_index


class SequencingError(DfcError):
    """An event arrived out of (block_number, log_index) order."""


class LedgerError(DfcError):
    """A ledger balance invariant was violated."""


class ValuationError(DfcError):
    """No usable price for (currency key, timestamp)."""

    def __init__(self, key: str, timestamp: int, reason: str):
        super().__init__(f"no usable {key} price at {timestamp}: {reason}")
        self.key = key
        self.timestamp = timestamp


class UndefinedCorrelationError(DfcError):
    """Pearson correlation undefined (zero variance input)."""


class InsufficientDataError(DfcError):
    """Fewer than the minimum usable paired periods for a correlation."""


class MissingCheckpointError(DfcError):
    """A stage's input checkpoint file does not exist."""

    def __init__(self, path, stage: str):
        super().__init__(
            f"missing checkpoint {path}; run the `{stage}` stage first"
        )
        self.path = path
        self.stage = stage
