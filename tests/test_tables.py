import contextlib
import csv
import io
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from dfcflow import cluster, decode, ledger, synth
from dfcflow.cluster import HeuristicPair, address_protocol_map, group_addresses
from dfcflow.decode import ApprovalEvent, CanonicalEvent, VaultTriple
from dfcflow.errors import TableError
from dfcflow.ingest import BlockRange, RawLog
from dfcflow.ledger import FlowRecord
from dfcflow.market import DAY, HOUR, PriceSeries
from dfcflow.registry import Currency, EventRule, Locator
from dfcflow.report import CorrelationResult, MonthlyDfcRow
from dfcflow.tables import Table
from dfcflow.util import SCALE as U

T0 = 1_588_598_520


def addr(n: int) -> str:
    return "0x" + f"{n:040x}"


def events():
    def at(position, kind, protocol, actor, **fields):
        return CanonicalEvent(kind=kind, protocol=protocol, actor=actor,
                              block_number=10_005_000 + position, log_index=position % 3,
                              timestamp=T0 + position, **fields)

    return [
        at(0, "debt_create", "Aave", addr(1), currency="DAI", amount=55 * U // 8),
        at(1, "debt_repay", "Compound", addr(1), currency="USDC", amount=U // 3,
           on_behalf_of=addr(2)),
        at(2, "swap", "Uniswap", addr(1), currency_sent="DAI", currency_received="WETH",
           amount_sent=7 * U // 4, amount_received=3 * U, on_behalf_of=addr(2)),
        at(3, "swap", "Uniswap", addr(2), currency_sent="WETH", currency_received="USDT",
           amount_sent=2 * U // 7, amount_received=0),
        at(4, "collateral_deposit", "Maker", addr(3), currency="WBTC", amount=0),
    ]


def partition():
    evs = [CanonicalEvent(kind="collateral_deposit", protocol=p, actor=a, block_number=i,
                          log_index=0, timestamp=T0, currency="DAI", amount=U)
           for i, (a, p) in enumerate([(addr(1), "Aave"), (addr(1), "Compound"),
                                       (addr(7), "Maker"), (addr(5), "Aave")])]
    return group_addresses([VaultTriple(addr(1), addr(2), addr(3))], address_protocol_map(evs))


def prices():
    return PriceSeries(point for i in range(3) for point in (
        ("ETH", T0 + i * HOUR, (20_000 + i) * U // 100),
        ("USDT", T0 + i * DAY, i * U + 1),  # all 36 decimals
    ))


def same(value):
    return value


# name -> (write, read, value factory, what the read must return for the value)
TABLES = {
    "events": (decode.write_events_csv, decode.read_events_csv, events, same),
    "vaults": (decode.write_vaults_csv, decode.read_vaults_csv,
               lambda: [VaultTriple(addr(1), addr(2), addr(3)),
                        VaultTriple(addr(4), addr(4), addr(4))], same),
    "approvals": (decode.write_approvals_csv, decode.read_approvals_csv,
                  lambda: [ApprovalEvent("USDC", addr(1), addr(2), 10_000_001, 4, T0),
                           ApprovalEvent("DAI", addr(3), addr(1), 10_000_002, 0, T0 + 9)],
                  same),
    "partition": (cluster.write_partition_csv, cluster.read_partition_csv, partition, same),
    "flows": (ledger.write_flows_csv, ledger.read_flows_csv,
              lambda: [FlowRecord(addr(1), T0, 10_000_003, "Aave", "DAI",
                                  "collateral_deposit", 25 * U // 2, 0, 100 * U // 3, 7 * U),
                       FlowRecord(addr(1), T0 + 1, 10_000_004, "Maker", "WETH",
                                  "collateral_withdraw", 0, U // 7, 0, 200 * U // 7)],
              same),
    "prices": (lambda path, series: series.to_csv(path), PriceSeries.from_csv, prices, same),
    "denylist": (synth.write_denylist_csv, cluster.load_denylist,
                 lambda: [(addr(10).upper().replace("0X", "0x"), "exchange:a"),
                          (addr(11), "otc:b")],
                 lambda rows: frozenset(address.lower() for address, _ in rows)),
}


def shuffle_layout(path):
    """Rewrite a written table with its columns reversed, an extra column
    and a blank line.  No cell of these tables holds a comma or quote."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",")[::-1] + [f"extra{i}"] for i, line in enumerate(lines)]
    text = [",".join(row) for row in rows]
    text.insert(min(2, len(text)), "")
    path.write_text("\n".join(text) + "\n", encoding="utf-8")


@pytest.mark.parametrize("layout", ["written", "shuffled"])
@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_round_trip(tmp_path, name, layout):
    write, read, make, expected = TABLES[name]
    value = make()
    path = tmp_path / f"{name}.csv"
    write(path, value)
    if layout == "shuffled":
        shuffle_layout(path)
    assert read(path) == expected(value)


VAULT_ROW = f"{addr(1)},{addr(2)},{addr(3)}"
UPPER = "0x" + "AB" * 20  # an address in a form the pipeline never writes


def event_file(protocol="Aave", kind="debt_create", actor=addr(1), on_behalf_of="",
               currency="DAI", currency_received="", amount="5", amount_received=""):
    return (",".join(decode.EVENT_CSV_COLUMNS) + f"\n1,0,{T0},{protocol},{kind},{actor},"
            f"{on_behalf_of},{currency},{currency_received},{amount},{amount_received}\n")


def flow_file(group=addr(1), protocol="Aave", currency="DAI"):
    return (",".join(ledger.FLOW_CSV_COLUMNS)
            + f"\n{group},{T0},1,{protocol},{currency},collateral_deposit,1,0,1,0\n")


def approval_file(token="USDC", owner=addr(1), spender=addr(2)):
    return (f"block_number,log_index,timestamp,token,owner,spender\n"
            f"1,0,{T0},{token},{owner},{spender}\n")


def swap_file(**cells):
    return event_file(protocol="Uniswap", kind="swap", amount_received="6", **cells)


ONLY_SWAPS = "a debt_create row has a currency_received or amount_received; only a swap has them"
NOT_ADDRESS = "expected 0x and 40 lowercase hex digits"


@pytest.mark.parametrize("read, text, error", [
    (decode.read_vaults_csv, f"user,proxy,urn\n{VAULT_ROW}\n\n{addr(4)},{addr(5)}\n",
     "line 4: 2 cells, the header has 3"),
    (decode.read_events_csv, ",".join(decode.EVENT_CSV_COLUMNS)
     + f"\n1,0,{T0},Aave,debt_crate,{addr(1)},,DAI,,5,\n", "line 2: unknown event kind 'debt_crate'"),
    (decode.read_events_csv, ",".join(decode.EVENT_CSV_COLUMNS)
     + f"\n1,0,{T0},Aave,debt_create,{addr(1)},,DAI,,5,\n2,0,{T0},Aave,debt_create,"
     + f"{addr(1)},,DAI,,1/3,\n",
     "line 3: invalid amount '1/3': expected [-]digits[.digits], at most 36 decimals"),
    (ledger.read_flows_csv, ",".join(ledger.FLOW_CSV_COLUMNS)
     + f"\n{addr(1)},{T0},1,Aave,DAI,collateral_deposit,1,0,1,0.{'0' * 36}1\n",
     "line 2: invalid amount '0." + "0" * 36 + "1': expected [-]digits[.digits], "
     "at most 36 decimals"),
    (decode.read_events_csv, event_file(protocol="Foo"), "line 2: unknown protocol 'Foo'"),
    (decode.read_events_csv, event_file(currency="FOO"), "line 2: unknown currency 'FOO'"),
    (decode.read_events_csv, swap_file(currency_received="FOO"), "line 2: unknown currency 'FOO'"),
    (decode.read_events_csv, swap_file(currency_received=""), "line 2: unknown currency ''"),
    (decode.read_events_csv, swap_file(currency_received="DAI"),
     "line 2: swap sends and receives DAI"),
    (decode.read_events_csv, event_file(currency_received="USDC"), f"line 2: {ONLY_SWAPS}"),
    (decode.read_events_csv, event_file(amount_received="0"), f"line 2: {ONLY_SWAPS}"),
    (decode.read_events_csv, event_file(actor=UPPER),
     f"line 2: invalid actor '{UPPER}': {NOT_ADDRESS}"),
    (decode.read_events_csv, event_file(on_behalf_of=addr(2)[:-1]),
     f"line 2: invalid on_behalf_of '{addr(2)[:-1]}': {NOT_ADDRESS}"),
    (decode.read_events_csv, event_file(protocol="Uniswap", kind="collateral_deposit"),
     "line 2: Uniswap collateral_deposit: lending events cannot belong to Uniswap"),
    (decode.read_events_csv, event_file(protocol="Aave", kind="swap", currency_received="USDC",
                                        amount_received="6"),
     "line 2: Aave swap: swap events belong to Uniswap only"),
    (ledger.read_flows_csv, flow_file(protocol="Uniswap"),
     "line 2: Uniswap collateral_deposit: lending events cannot belong to Uniswap"),
    (ledger.read_flows_csv, flow_file(protocol="Foo"), "line 2: unknown protocol 'Foo'"),
    (ledger.read_flows_csv, flow_file(currency="FOO"), "line 2: unknown currency 'FOO'"),
    (ledger.read_flows_csv, flow_file(group="alice"),
     f"line 2: invalid group_representative 'alice': {NOT_ADDRESS}"),
    (decode.read_approvals_csv, approval_file(token="FOO"),
     "line 2: token 'FOO' is not a currency symbol"),
    (decode.read_approvals_csv, approval_file(spender=addr(2) + " "),
     f"line 2: invalid spender '{addr(2)} ': {NOT_ADDRESS}"),
    (decode.read_vaults_csv, f"user,proxy,urn\n{addr(1)},{addr(2)},0X{addr(3)[2:]}\n",
     f"line 2: invalid urn '0X{addr(3)[2:]}': {NOT_ADDRESS}"),
    (cluster.load_denylist, f"address,label\n{UPPER},exchange\n0x{'g' * 40},otc\n",
     f"line 3: invalid address '0x{'g' * 40}': expected 0x and 40 hex digits"),
    (cluster.load_denylist, f"address,label\n0X{'ab' * 20},exchange\n",
     f"line 2: invalid address '0X{'ab' * 20}': expected 0x and 40 hex digits"),
], ids=["short-row", "unknown-kind", "fraction-amount", "amount-too-fine",
        "events-unknown-protocol", "events-unknown-currency", "events-swap-unknown-received",
        "events-swap-no-received", "events-swap-same-legs", "events-received-on-lending",
        "events-amount-received-on-lending", "events-actor-not-address",
        "events-on-behalf-of-not-address", "events-uniswap-deposit", "events-aave-swap",
        "flows-uniswap-deposit", "flows-unknown-protocol", "flows-unknown-currency",
        "flows-group-not-address", "approvals-unknown-token", "approvals-spender-not-address",
        "vaults-urn-not-address", "denylist-not-hex", "denylist-upper-prefix"])
def test_bad_row_names_the_file_and_line(tmp_path, read, text, error):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(TableError) as info:
        read(path)
    assert str(info.value) == f"{path}, {error}"


def test_byte_not_utf8_names_the_file_but_no_line(tmp_path):
    # the reader decodes a chunk ahead of the row it parses, so a line
    # number would name an earlier row
    path = tmp_path / "vaults.csv"
    row = VAULT_ROW.encode()
    # the 0xff on line 1502
    path.write_bytes(b"user,proxy,urn\n" + (row + b"\n") * 1500 + row[:-1] + b"\xff\n"
                     + (row + b"\n") * 100)
    with pytest.raises(TableError) as info:
        decode.read_vaults_csv(path)
    assert str(info.value) == f"{path}: not UTF-8: invalid start byte"
    assert info.value.line is None


@pytest.mark.parametrize("record", [
    RawLog(10_000_001, b"\x01" * 32, 0, b"\x02" * 20, (b"\x03" * 32,), b"", T0),
    events()[0],
    VaultTriple(addr(1), addr(2), addr(3)),
    ApprovalEvent("USDC", addr(1), addr(2), 10_000_001, 4, T0),
    TABLES["flows"][2]()[0],
    Currency("DAI", 18, "DAI"),
    Locator("data", 32),
    EventRule("Aave", b"\x02" * 20, b"\x03" * 32, "Borrow(...)", "debt_create",
              actor=Locator("topic", 1), amount=Locator("data", 0), currency_fixed="DAI"),
    BlockRange(10_000_000, 10_000_001),
    HeuristicPair(addr(1), addr(2), "UniswapSwapRecipient"),
    MonthlyDfcRow("2020-07", U, 2 * U),
    CorrelationResult("price_change", "next_day", 0.1, 0.05, 10),
], ids=lambda record: type(record).__name__)
def test_records_are_immutable_and_compare_field_by_field(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.note = "extra"
    assert record == type(record)(*record)
    assert record != tuple.__new__(type(record), (None, *record[1:]))


def integer_cell_forms(text):
    """Forms of an integer cell that `int()` reads but a checkpoint never holds."""
    return {
        "space": " " + text,
        "sign": "+" + text,
        "underscore": text[0] + "_" + text[1:] if len(text) > 1 else "0_" + text,
        "arabic-indic": text.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    }


@pytest.mark.parametrize("form", sorted(integer_cell_forms("1")))
@pytest.mark.parametrize("name, column", [
    ("prices", "timestamp"),
    ("events", "block_number"), ("events", "log_index"), ("events", "timestamp"),
    ("approvals", "block_number"), ("approvals", "log_index"), ("approvals", "timestamp"),
    ("flows", "timestamp"), ("flows", "block_number"),
])
def test_integer_cells_take_only_ascii_digits(tmp_path, name, column, form):
    write, read, make, _ = TABLES[name]
    path = tmp_path / f"{name}.csv"
    write(path, make())
    lines = path.read_text(encoding="utf-8").splitlines()
    index = lines[0].split(",").index(column)
    cells = lines[1].split(",")
    text = cells[index] = integer_cell_forms(cells[index])[form]
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TableError) as info:
        read(path)
    assert str(info.value) == f"{path}, line 2: invalid {column} {text!r}: expected ASCII digits"


# --- the codec agrees with the csv module --------------------------------------

# small enough for a drawn cell to pass it
FIELD_LIMIT = 24
# what `csv` treats apart in a cell, and a cell longer than FIELD_LIMIT
SPECIAL_TEXTS = [",", '"', "\r", "\n", "\0", "None", "x" * (FIELD_LIMIT + 1)]


@st.composite
def cell_texts(draw, special=None):
    """Plain text holding `special`, or a drawn one of SPECIAL_TEXTS (or
    none) when `special` is None."""
    text = draw(st.text("ab1 é", max_size=4))
    if special is None:
        special = draw(st.sampled_from(["", *SPECIAL_TEXTS]))
    at = draw(st.integers(0, len(text)))
    return text[:at] + special + text[at:]


@st.composite
def table_rows(draw, special):
    """Columns, and rows of their width or another, as tuples or lists,
    of text, None and int cells; the first row holds `special`, a piece
    of SPECIAL_TEXTS, None (a None cell) or "" (nothing)."""
    columns = draw(st.sampled_from([("a",), ("a", "b"), ("b", "a", "c")]))
    rows = []
    for row in range(draw(st.integers(1, 5))):
        width = draw(st.sampled_from([len(columns)] * 4 + [0, 1, 2, 4]) if row else st.just(
            len(columns)))
        cells = [draw(cell_texts("") | st.integers(-3, 10**20)) for _ in range(width)]
        if row == 0:
            cells[draw(st.integers(0, width - 1))] = None if special is None else draw(
                cell_texts(special))
        else:
            cells = [draw(cell_texts() | st.none()) if draw(st.booleans()) else cell
                     for cell in cells]
        rows.append(draw(st.sampled_from([tuple, list]))(cells))
    return columns, rows


def write_with_csv_module(columns, rows) -> bytes:
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def read_with_csv_module(path, columns):
    """`Table(columns).read` with csv.reader alone: the rows, or the
    error's message and line."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [name for name in columns if name not in header]
            if missing:
                raise ValueError(f"missing columns {missing}")
            index = [header.index(name) for name in columns]
            pick = itemgetter(*index)  # one column gives its cell, not a tuple
            rows = []
            for row in reader:
                if row and len(row) <= max(index):
                    raise ValueError(f"{len(row)} cells, the header has {len(header)}")
                if row:
                    rows.append(pick(row))
            return rows
        except (ValueError, csv.Error) as exc:
            return str(exc), max(reader.line_num, 1)


def read_with_table(path, columns):
    try:
        return Table(columns).read(path)
    except TableError as exc:
        return str(exc).removeprefix(f"{path}, line {exc.line}: "), exc.line


@contextlib.contextmanager
def field_limit(limit):
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


SPECIAL_IDS = ["comma", "quote", "cr", "lf", "nul", "None-text", "over-limit"]


@pytest.mark.parametrize("special", ["", None, *SPECIAL_TEXTS],
                         ids=["plain", "none-cell", *SPECIAL_IDS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_plain_write_matches_the_csv_module(tmp_path_factory, special, data):
    columns, rows = data.draw(table_rows(special))
    path = tmp_path_factory.mktemp("write") / "table.csv"
    with field_limit(FIELD_LIMIT):
        try:  # a NUL cell is an error before Python 3.11
            expected = write_with_csv_module(columns, rows)
        except csv.Error as exc:
            expected = str(exc)
        try:
            Table(columns).write(path, rows)
        except csv.Error as exc:
            assert str(exc) == expected
        else:
            assert path.read_bytes() == expected
            assert read_with_table(path, columns) == read_with_csv_module(path, columns)


@st.composite
def csv_texts(draw, special):
    """A CSV file of header a,b or b,x,a: rows written by csv.writer or
    joined at commas whatever they hold, blank lines, CRLF line ends; a
    cell of the first row holds `special`."""
    lines = [draw(st.sampled_from(["a,b", "b,x,a", '"a",b', "a", ""]))]
    for row in range(draw(st.integers(1, 8))):
        form = draw(st.sampled_from(["csv", "csv", "joined", "blank", "crlf"]))
        cells = draw(st.lists(cell_texts(), min_size=1, max_size=4))
        if row == 0:
            form = draw(st.sampled_from(["csv", "joined"]))
            cells[0] = draw(cell_texts(special))
        if form == "csv":
            out = io.StringIO(newline="")
            try:  # a NUL cell is an error before Python 3.11
                csv.writer(out, lineterminator="\n").writerow(cells)
            except csv.Error:
                form = "joined"
            else:
                lines.append(out.getvalue()[:-1])  # a quoted cell may span lines
        if form == "joined":
            lines.append(",".join(cells))
        elif form == "blank":
            lines.append("")
        elif form == "crlf":
            lines.append(",".join(cells) + "\r")
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n", "\n\n"]))


@pytest.mark.parametrize("special", ["", *SPECIAL_TEXTS], ids=["plain", *SPECIAL_IDS])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_read_matches_the_csv_module(tmp_path_factory, special, data):
    text = data.draw(csv_texts(special))
    path = tmp_path_factory.mktemp("read") / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    with field_limit(FIELD_LIMIT):
        assert read_with_table(path, ("a", "b")) == read_with_csv_module(path, ("a", "b"))

