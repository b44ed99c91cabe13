"""First-out debt-taint ledger over the canonical event stream.

Each eligible address group carries a per-currency wallet debt balance and
a per-(protocol, currency) platform debt balance.  Debt creation raises
the wallet balance, repayment lowers it (clamped at zero: with only five
currencies and four protocols observed, repaying more than the tracked
debt is partial observability, not an error).  Collateral deposits move
debt first (the first-out rule: min of amount and wallet debt), and every
deposit becomes a flow record of its debt-financed and other parts,
valued in USD at event time.  Withdrawals reverse the deposit
direction, bounded by the platform balance, so tainted units are
conserved.  Swaps carry taint across currencies in proportion to the debt
share of the amount sent.

After each event the ledger checks that every balance the event changed
is non-negative, and raises `LedgerError` for the first one that is not:
the wallet balance of the event's currency for a debt creation or
repayment; that wallet balance, then the (protocol, currency) platform
balance, for a deposit or withdrawal; the wallet balances of the sent,
then the received currency for a swap.  Every other balance is unchanged
since its own last check.

Amounts, balances and USD values are `int` counts of 1/`util.SCALE`
units (10**-36 of a token or a dollar).  The rounding rule: every
division floors to a whole unit.  The ledger divides in one place, the
received side of a swap, `amount_received * min(held, amount_sent) //
amount_sent`; the sent side, `held - min(held, amount_sent)`, is exact,
and `PriceSeries.value_usd` floors its USD value.  Against the same
events run in exact rational arithmetic:

- No taint is created.  Every step is monotone in the balances it reads
  and a floor never exceeds the exact quotient, so each fixed-point debt
  balance, and each flow record's debt amount, is <= its exact value.
- The deposit split loses nothing: debt + non-debt == amount, exactly,
  and a deposit or withdrawal moves debt between wallet and platform
  without loss.
- The shortfall is bounded.  Let D_c be the shortfall of currency c,
  summed over the group's wallet and platform balances.  Debt creation,
  deposits and withdrawals leave D_c unchanged; repayments and the sent
  side of a swap cannot raise it; a swap raises D_received by less than
  (amount_received / amount_sent) * D_sent + 1.  So with b_c = 0 at the
  start and, at each swap, b_received += (amount_received / amount_sent)
  * b_sent + 1, every debt balance in c and every debt amount of a flow
  record in c falls short by at most b_c units, and its USD value by at
  most price * b_c + 1 units.  At 10**-36 per unit the reports, rounded
  to six digits at most, do not see it.

Results are independent of delivery order because events are re-sorted
on the unique (block_number, log_index) key before application.

A `FlowRecord` is an immutable named tuple, built once per deposit or
withdrawal and compared field by field.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, NamedTuple, Sequence

from .cluster import Partition
from .decode import CanonicalEvent
from .errors import LedgerError, SequencingError
from .registry import (
    COLLATERAL_DEPOSIT, COLLATERAL_WITHDRAW, CURRENCIES, DEBT_CREATE, DEBT_REPAY, PROTOCOLS, SWAP,
    kind_protocol_error,
)
from .tables import Table
from .util import address_cell_error, format_fixed, is_address, parse_amount, uint_cell_error

_new = tuple.__new__  # a named tuple from all of its fields, without `__new__`'s defaults

Valuer = Callable[[str, int, int], int]  # (currency, amount, ts) -> USD, fixed point

FLOW_CSV_COLUMNS = (
    "group_representative",
    "timestamp",
    "block_number",
    "protocol",
    "currency",
    "kind",
    "debt_amount_token",
    "nondebt_amount_token",
    "debt_amount_usd",
    "nondebt_amount_usd",
)


def first_out_split(amount: int, wallet_debt_balance: int) -> tuple[int, int]:
    """Debt-financed units move first: (min(amount, debt), remainder)."""
    if amount < 0 or wallet_debt_balance < 0:
        raise ValueError("first-out split needs non-negative inputs")
    debt_amt = min(amount, wallet_debt_balance)
    return debt_amt, amount - debt_amt


class FlowRecord(NamedTuple):
    """One collateral movement, split into debt and non-debt components."""

    group: str
    timestamp: int
    block_number: int
    protocol: str
    currency: str
    kind: str  # collateral_deposit | collateral_withdraw
    debt_token: int
    nondebt_token: int
    debt_usd: int
    nondebt_usd: int


class GroupLedger:
    """Running debt balances for one address group."""

    def __init__(self, group: str, valuer: Valuer):
        self.group = group
        self._valuer = valuer
        self.wallet_debt: dict[str, int] = defaultdict(int)
        self.platform_debt: dict[tuple[str, str], int] = defaultdict(int)
        self._last_key: tuple[int, int] | None = None

    def apply(self, e: CanonicalEvent) -> FlowRecord | None:
        """Apply one event; gives the flow record of a deposit or withdrawal."""
        (kind, protocol, _, block_number, log_index, timestamp, currency, amount,
         sent, received, amount_sent, amount_received, _) = e
        key = block_number, log_index
        if self._last_key is not None and key <= self._last_key:
            raise SequencingError(
                f"event at {key} arrived after {self._last_key} in group {self.group}"
            )
        self._last_key = key
        wallet = self.wallet_debt

        if kind == SWAP:
            if amount_sent != 0:
                held = wallet[sent]
                moved = min(held, amount_sent)
                wallet[sent] = held - moved
                # the one taint division: floored, so it never creates taint
                wallet[received] += amount_received * moved // amount_sent
            for currency in (sent, received):
                # .get: a swap that sent nothing created no balance
                if wallet.get(currency, 0) < 0:
                    raise LedgerError(f"wallet debt for {currency} went negative at {key}")
            return None

        record = platform_key = None
        if kind == DEBT_CREATE:
            balance = wallet[currency] + amount
            wallet[currency] = balance
        elif kind == DEBT_REPAY:
            balance = wallet[currency]
            balance -= min(amount, balance)
            wallet[currency] = balance
        elif kind == COLLATERAL_DEPOSIT or kind == COLLATERAL_WITHDRAW:
            platform_key = protocol, currency
            balance = wallet[currency]
            if kind == COLLATERAL_DEPOSIT:
                moved, kept = first_out_split(amount, balance)
                held = self.platform_debt[platform_key] + moved
                balance -= moved
            else:
                held = self.platform_debt[platform_key]
                moved = min(amount, held)
                kept = amount - moved
                held -= moved
                balance += moved
            wallet[currency] = balance
            self.platform_debt[platform_key] = held
            valuer = self._valuer
            record = _new(FlowRecord, (
                self.group, timestamp, block_number, protocol, currency, kind, moved, kept,
                valuer(currency, moved, timestamp), valuer(currency, kept, timestamp),
            ))
        else:
            raise LedgerError(f"unknown event kind {kind!r}")

        if balance < 0:
            raise LedgerError(f"wallet debt for {currency} went negative at {key}")
        if platform_key is not None and held < 0:
            raise LedgerError(f"platform debt for {platform_key} went negative at {key}")
        return record


class LedgerRun(NamedTuple):
    flow_records: list[FlowRecord]
    group_ledgers: dict[str, GroupLedger]
    stats: dict[str, int]


def run_ledger(
    events: Sequence[CanonicalEvent],
    partition: Partition,
    valuer: Valuer,
) -> LedgerRun:
    """Apply the event stream to per-group ledgers and aggregate flows.

    Events are routed to the eligible group containing their actor; events
    initiated by addresses outside every eligible group are skipped.
    Cross-group on-behalf repayments apply to the actor's group (the funds
    leave the actor's wallet) and are counted in stats.
    """
    order_key = CanonicalEvent.order_key.fget
    ordered = sorted(events, key=order_key)
    keys = list(map(order_key, ordered))
    for earlier, later in zip(keys, keys[1:]):
        if earlier == later:
            raise SequencingError(f"duplicate event position {earlier}")

    ledgers: dict[str, GroupLedger] = {}
    stats = {"applied": 0, "skipped_unrouted": 0, "cross_group_repays": 0}
    flow_records: list[FlowRecord] = []
    addr_to_rep, eligible = partition.addr_to_rep, partition.eligible

    for e in ordered:
        rep = addr_to_rep.get(e.actor)
        if rep not in eligible:
            stats["skipped_unrouted"] += 1
            continue
        if e.kind == DEBT_REPAY and e.on_behalf_of is not None:
            beneficiary_rep = partition.eligible_rep_of(e.on_behalf_of)
            if beneficiary_rep != rep:
                stats["cross_group_repays"] += 1
        ledger = ledgers.get(rep)
        if ledger is None:
            ledger = ledgers[rep] = GroupLedger(rep, valuer)
        record = ledger.apply(e)
        if record is not None:
            flow_records.append(record)
        stats["applied"] += 1

    return LedgerRun(flow_records=flow_records, group_ledgers=ledgers, stats=stats)


# --- flow log IO -------------------------------------------------------------

def _flow_row(r: FlowRecord) -> tuple:
    (group, timestamp, block_number, protocol, currency, kind,
     debt_token, nondebt_token, debt_usd, nondebt_usd) = r
    return (
        group, timestamp, block_number, protocol, currency, kind,
        format_fixed(debt_token), format_fixed(nondebt_token),
        format_fixed(debt_usd), format_fixed(nondebt_usd),
    )


def _flow_from_row(
    group, timestamp, block_number, protocol, currency, kind,
    debt_token, nondebt_token, debt_usd, nondebt_usd,
) -> FlowRecord:
    if not (timestamp.isdigit() and block_number.isdigit()
            and (timestamp + block_number).isascii()):
        raise uint_cell_error(timestamp=timestamp, block_number=block_number)
    if kind not in (COLLATERAL_DEPOSIT, COLLATERAL_WITHDRAW):
        raise ValueError(f"unknown flow kind {kind!r}")
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    mismatch = kind_protocol_error(kind, protocol)
    if mismatch:
        raise ValueError(f"{protocol} {kind}: {mismatch}")
    if currency not in CURRENCIES:
        raise ValueError(f"unknown currency {currency!r}")
    if not is_address(group):
        raise address_cell_error(group_representative=group)
    return FlowRecord(
        group, int(timestamp), int(block_number), protocol, currency, kind,
        parse_amount("debt_amount_token", debt_token),
        parse_amount("nondebt_amount_token", nondebt_token),
        parse_amount("debt_amount_usd", debt_usd),
        parse_amount("nondebt_amount_usd", nondebt_usd),
    )


FLOWS = Table(FLOW_CSV_COLUMNS, _flow_row, _flow_from_row)
write_flows_csv = FLOWS.write
read_flows_csv = FLOWS.read
