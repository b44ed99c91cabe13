import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from dfcflow.errors import ConflictingLogError, TableError
from dfcflow.ingest import (
    FIXTURE_FIELDS,
    BlockRange,
    RawLog,
    filter_logs,
    load_fixture,
    save_fixture,
    serialize_fixture,
)
from dfcflow.util import parse_hex, to_hex

AAVE_POOL = "0x7d2768de32b0b80b7a3454c06bdac94a69ddc7a9"
AAVE_DEPOSIT = "0xde6857219544bb5b7746f48ed30be6386fefc61b2f864cacf559893bf50fd951"


def make_line(block=10_000_000, log_index=0, address=AAVE_POOL, topic0=AAVE_DEPOSIT,
              n_topics=1, data="0x", timestamp=1_588_598_520):
    topics = [topic0] + ["0x" + "00" * 32] * (n_topics - 1)
    return json.dumps({
        "block_number": block,
        "timestamp": timestamp,
        "tx_hash": "0x" + "ab" * 32,
        "address": address,
        "topics": topics,
        "data": data,
        "log_index": log_index,
    }, separators=(",", ":"))


def test_empty_file_gives_empty_sequence(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_fixture(path) == []


def test_single_line_round_trips_byte_identically(tmp_path):
    line = make_line(data="0x" + "11" * 64, n_topics=3)
    path = tmp_path / "one.jsonl"
    path.write_text(line + "\n")
    logs = load_fixture(path)
    assert len(logs) == 1
    assert serialize_fixture(logs) == line + "\n"


def test_five_topics_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(make_line() + "\n" + make_line(n_topics=5) + "\n")
    with pytest.raises(TableError) as err:
        load_fixture(path)
    assert err.value.line == 2


def test_bytes_that_are_not_utf8_name_the_file_but_no_line(tmp_path):
    # the text layer decodes a chunk ahead of the line being parsed
    lines = [make_line(log_index=i).encode() for i in range(100)]
    lines[90] = lines[90].replace(b'"data":"0x', b'"data":"\xff0x')
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(TableError) as err:
        load_fixture(path)
    assert err.value.line is None
    assert str(err.value) == f"{path}: not UTF-8: invalid start byte"


def test_odd_length_hex_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(make_line(data="0x123") + "\n")
    with pytest.raises(TableError) as err:
        load_fixture(path)
    assert err.value.line == 1
    assert "odd-length" in str(err.value)


@pytest.mark.parametrize("field, value", [
    ("data", "0xab  cd"),
    ("data", "0x\nab\n"),
    ("tx_hash", "0x" + "ab" * 31 + "  "),
    ("topics", ["0x" + "00" * 31 + "\t\t"]),
])
def test_whitespace_inside_hex_is_a_parse_error(tmp_path, field, value):
    obj = json.loads(make_line())
    obj[field] = value
    path = tmp_path / "bad.jsonl"
    path.write_text(make_line(log_index=1) + "\n" + json.dumps(obj) + "\n")
    with pytest.raises(TableError) as err:
        load_fixture(path)
    assert err.value.line == 2
    assert "invalid hex string" in str(err.value)


@pytest.mark.parametrize("text, message", [
    ("{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("{} {}", "Extra data: line 1 column 4 (char 3)"),
    ("[1] x", "Extra data: line 1 column 5 (char 4)"),
    ("nul", "Expecting value: line 1 column 1 (char 0)"),
    # JSON, but not an object
    ("5", "a log must be a JSON object, got number"),
    ("null", "a log must be a JSON object, got null"),
    ('"block_number timestamp tx_hash address topics data log_index"',
     "a log must be a JSON object, got string"),
    ("[1,2]", "a log must be a JSON object, got array"),
])
def test_invalid_json_keeps_the_json_message(tmp_path, text, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(make_line() + "\n" + text + "\n")
    with pytest.raises(TableError) as err:
        load_fixture(path)
    assert str(err.value) == f"{path}, line 2: {message}"


def test_invalid_json_names_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(make_line() + "\n{not json\n")
    with pytest.raises(TableError) as err:
        load_fixture(path)
    assert err.value.line == 2


def test_missing_field_is_a_parse_error(tmp_path):
    obj = json.loads(make_line())
    del obj["tx_hash"]
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(TableError):
        load_fixture(path)


@pytest.mark.parametrize("field", ["block_number", "timestamp", "log_index"])
def test_boolean_integer_field_is_a_parse_error(tmp_path, field):
    # JSON true is an int to Python; it must not load and be written back
    obj = json.loads(make_line())
    obj[field] = True
    path = tmp_path / "bad.jsonl"
    path.write_text(make_line(log_index=1) + "\n" + json.dumps(obj) + "\n")
    with pytest.raises(TableError) as err:
        load_fixture(path)
    assert err.value.line == 2
    assert f"{field} must be a non-negative integer" in str(err.value)


def test_load_preserves_file_order(tmp_path):
    lines = [make_line(block=b, log_index=i) for b, i in
             [(10_000_005, 1), (10_000_001, 0), (10_000_005, 0)]]
    path = tmp_path / "f.jsonl"
    path.write_text("\n".join(lines) + "\n")
    logs = load_fixture(path)
    assert [log.order_key for log in logs] == [(10_000_005, 1), (10_000_001, 0), (10_000_005, 0)]


def test_save_then_load_round_trips(tmp_path, registry):
    line = make_line(n_topics=2, data="0x" + "22" * 32)
    logs = [RawLog.from_json_obj(json.loads(line))]
    path = tmp_path / "f.jsonl"
    save_fixture(path, logs)
    assert load_fixture(path) == logs


def test_serialization_is_whitespace_canonical(tmp_path):
    # same record with extra whitespace still parses; output is canonical
    loose = make_line().replace(",", ", ").replace(":", ": ")
    path = tmp_path / "loose.jsonl"
    path.write_text(loose + "\n")
    logs = load_fixture(path)
    assert serialize_fixture(logs) == make_line() + "\n"


def test_block_range_inclusive_bounds(registry):
    block_range = BlockRange(10_000_000, 11_700_000)
    below = RawLog.from_json_obj(json.loads(make_line(block=9_999_999)))
    at_start = RawLog.from_json_obj(json.loads(make_line(block=10_000_000)))
    at_end = RawLog.from_json_obj(json.loads(make_line(block=11_700_000, log_index=1)))
    above = RawLog.from_json_obj(json.loads(make_line(block=11_700_001)))
    kept = filter_logs([below, at_start, at_end, above], registry, block_range)
    assert [log.block_number for log in kept] == [10_000_000, 11_700_000]


def test_filter_drops_unregistered_topic_and_address(registry):
    block_range = BlockRange(10_000_000, 11_700_000)
    wrong_topic = RawLog.from_json_obj(json.loads(make_line(topic0="0x" + "99" * 32)))
    wrong_address = RawLog.from_json_obj(
        json.loads(make_line(address="0x" + "77" * 20)))
    base = RawLog.from_json_obj(json.loads(make_line()))
    no_topics = RawLog(
        block_number=base.block_number,
        tx_hash=base.tx_hash,
        log_index=base.log_index,
        contract_address=base.contract_address,
        topics=(),
        data=base.data,
        timestamp=base.timestamp,
    )
    kept = filter_logs([wrong_topic, wrong_address, no_topics], registry, block_range)
    assert kept == []


def test_filter_keeps_one_of_repeated_records_and_rejects_conflicts(registry):
    block_range = BlockRange(10_000_000, 11_700_000)
    first = RawLog.from_json_obj(json.loads(make_line(log_index=3)))
    second = RawLog.from_json_obj(json.loads(make_line(log_index=4)))
    repeat = RawLog.from_json_obj(json.loads(make_line(log_index=3)))
    kept = filter_logs([second, first, repeat, second], registry, block_range)
    assert kept == [first, second]
    conflict = RawLog.from_json_obj(json.loads(make_line(log_index=3, data="0x" + "01" * 32)))
    with pytest.raises(ConflictingLogError, match="log index 3"):
        filter_logs([first, second, conflict], registry, block_range)


def test_conflicting_fixture_record_names_both_lines(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text("\n".join([
        make_line(log_index=0), make_line(log_index=1), "",
        make_line(log_index=0), make_line(log_index=1, timestamp=1_588_598_521),
    ]) + "\n")
    with pytest.raises(TableError, match="line 2") as err:
        load_fixture(path)
    assert err.value.line == 5


@pytest.mark.parametrize("change, conflict", [
    (dict(data="0x" + "AB" * 32), False),  # the same bytes in upper case: a repeat
    (dict(data="0x" + "ab" * 31 + "ac"), True),
    (dict(timestamp=1_588_598_521), True),
    (dict(address="0x" + "77" * 20), True),
    (dict(n_topics=2), True),
])
def test_a_different_log_at_a_seen_position_is_a_parse_error(tmp_path, change, conflict):
    path = tmp_path / "f.jsonl"
    path.write_text("\n".join([
        make_line(data="0x" + "ab" * 32), make_line(log_index=1), make_line(**change),
    ]) + "\n")
    if not conflict:
        first, _, repeat = load_fixture(path)
        assert repeat == first
        return
    with pytest.raises(TableError, match="differs from the one on line 1") as err:
        load_fixture(path)
    assert err.value.line == 3


WHITESPACE = " \t\n\r\x0b\x0c"


@st.composite
def hex_values(draw, size=None):
    """A hex field as a fixture or node may write it: mostly 0x-prefixed
    hex of `size` bytes (any size when None) in either case, otherwise
    resized, odd-length, unprefixed, holding whitespace or a non-hex
    character, or not a string."""
    n = draw(st.integers(0, 80) if size is None else st.sampled_from(
        [size] * 6 + [0, 1, size - 1, size + 1]))
    body = draw(st.binary(min_size=n, max_size=n)).hex()
    if draw(st.booleans()):  # mixed case
        body = "".join(c.upper() if draw(st.booleans()) else c for c in body)
    value = "0x" + body
    mangle = draw(st.sampled_from(
        [None] * 6 + ["space", "pad", "odd", "prefix", "nonhex", "type"]))
    at = 2 + 2 * draw(st.integers(0, n))
    if mangle == "space":  # same length, so only the hex itself can tell
        value = value[:at - 2] + draw(st.text(WHITESPACE, min_size=2, max_size=2)) + value[at:]
    elif mangle == "pad":
        value = value[:at] + draw(st.text(WHITESPACE, min_size=1, max_size=3)) + value[at:]
    elif mangle == "odd":
        value = value[:-1] if n else value + "a"
    elif mangle == "prefix":
        value = draw(st.sampled_from(["", "0X", "x0", "00"])) + body
    elif mangle == "nonhex":
        value = value[:at - 1] + draw(st.sampled_from("gxX-+ \u0663\uff41\u00e9")) + value[at:]
    elif mangle == "type":
        return draw(st.sampled_from([None, 7, -1, 1.5, True, [], ["0x00"], {}, {"0x": 1}]))
    return value


def raw_log_per_field(obj) -> RawLog:
    """A fixture object read field by field with parse_hex."""
    return RawLog(
        obj["block_number"],
        parse_hex(obj["tx_hash"], expected_bytes=32),
        obj["log_index"],
        parse_hex(obj["address"], expected_bytes=20),
        tuple(parse_hex(t, expected_bytes=32) for t in obj["topics"]),
        parse_hex(obj["data"]),
        obj["timestamp"],
    )


def outcome(read, obj):
    """What `read(obj)` gives: its value, or its error's type and message."""
    try:
        return read(obj)
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(
    tx_hash=hex_values(32),
    address=hex_values(20),
    topics=st.lists(hex_values(32), max_size=4),
    data=hex_values(),
)
def test_one_hex_decode_per_log_matches_parse_hex_per_field(tx_hash, address, topics, data):
    obj = json.loads(make_line())
    obj.update(tx_hash=tx_hash, address=address, topics=topics, data=data)
    expected = outcome(raw_log_per_field, obj)
    assert outcome(RawLog.from_json_obj, obj) == expected
    if isinstance(expected, RawLog):
        assert type(RawLog.from_json_obj(obj)) is RawLog


def test_block_range_rejects_inverted_bounds():
    with pytest.raises(ValueError, match="^block range start 11 > end 10$"):
        BlockRange(11, 10)
    with pytest.raises(ValueError, match="^block range start 9 > end 5$"):
        BlockRange(1, 5)._replace(start=9)
    with pytest.raises(ValueError, match="^block range start 9 > end 5$"):
        BlockRange._make((9, 5))


@st.composite
def raw_logs(draw):
    block = draw(st.integers(min_value=9_999_990, max_value=10_000_040))
    index = draw(st.integers(min_value=0, max_value=50))
    address = draw(st.sampled_from([AAVE_POOL, "0x" + "55" * 20]))
    topic0 = draw(st.sampled_from([AAVE_DEPOSIT, "0x" + "66" * 32]))
    return RawLog.from_json_obj(json.loads(
        make_line(block=block, log_index=index, address=address, topic0=topic0)
    ))


@settings(max_examples=60, deadline=None)
@given(logs=st.lists(raw_logs(), max_size=40))
def test_filter_is_idempotent_sorted_subset(registry, logs):
    block_range = BlockRange(10_000_000, 10_000_020)
    once = filter_logs(logs, registry, block_range)
    twice = filter_logs(once, registry, block_range)
    assert twice == once
    assert set(map(id, once)) <= set(map(id, logs))
    keys = [log.order_key for log in once]
    assert keys == sorted(keys)
    for log in once:
        assert log.block_number in block_range
        assert to_hex(log.contract_address) == AAVE_POOL


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_filter_counts_add_up(registry, data):
    """Logs at distinct positions, in and out of the range, with a
    registered or unregistered contract or topic0 or with no topics, plus
    verbatim repeats, shuffled: each is counted once, under one reason."""
    block_range = BlockRange(10_000_000, 10_000_020)
    distinct = [log._replace(topics=()) if data.draw(st.integers(0, 4)) == 0 else log
                for log in data.draw(st.lists(raw_logs(), max_size=30,
                                              unique_by=RawLog.order_key.fget))]
    repeats = data.draw(st.lists(st.sampled_from(distinct), max_size=10)) if distinct else []
    logs = data.draw(st.permutations(distinct + repeats))
    expected = dict.fromkeys(("out_of_range", "not_registered", "repeats", "kept"), 0)
    for log in distinct:
        copies = 1 + repeats.count(log)
        if log.block_number not in block_range:
            expected["out_of_range"] += copies
        elif log.topics[:1] != (parse_hex(AAVE_DEPOSIT, 32),) or to_hex(
                log.contract_address) != AAVE_POOL:
            expected["not_registered"] += copies
        else:
            expected["repeats"] += copies - 1
            expected["kept"] += 1
    counts = {}
    kept = filter_logs(logs, registry, block_range, counts)
    assert counts == {"read": len(logs), **expected}
    assert counts["read"] == sum(expected.values()) and counts["kept"] == len(kept)
    assert kept == filter_logs(logs, registry, block_range)


@settings(max_examples=100, deadline=None)
@given(
    block=st.integers(min_value=0, max_value=2**64),
    timestamp=st.integers(min_value=0, max_value=2**40),
    log_index=st.integers(min_value=0, max_value=2**16),
    tx_hash=st.binary(min_size=32, max_size=32),
    address=st.binary(min_size=20, max_size=20),
    topics=st.lists(st.binary(min_size=32, max_size=32), max_size=4),
    # empty, odd-sized and word-sized payloads
    data=st.one_of(st.just(b""), st.binary(max_size=33), st.binary(min_size=64, max_size=64)),
)
def test_json_line_is_compact_json_dumps(block, timestamp, log_index, tx_hash, address,
                                         topics, data):
    log = RawLog(block_number=block, tx_hash=tx_hash, log_index=log_index,
                 contract_address=address, topics=tuple(topics), data=data,
                 timestamp=timestamp)
    obj = {
        "block_number": block,
        "timestamp": timestamp,
        "tx_hash": to_hex(tx_hash),
        "address": to_hex(address),
        "topics": [to_hex(t) for t in topics],
        "data": to_hex(data),
        "log_index": log_index,
    }
    line = log.to_json_line()
    assert line == json.dumps(obj, separators=(",", ":"))
    assert RawLog.from_json_obj(json.loads(line)) == log
    assert serialize_fixture([log, log]) == line + "\n" + line + "\n"


WORD = "0x" + "ab" * 32
# each kind of change to a valid fixture object: the changed fields, or
# (for "object") what stands in for the whole object
LINE_CHANGES = {
    "none": [{}],
    "negative": [{"block_number": -1}, {"timestamp": -1}, {"log_index": -1}],
    "not-an-int": [{field: value} for field in ("block_number", "timestamp", "log_index")
                   for value in (True, False, 1.0, "1", None)] + [{"timestamp": 2**70}],
    "missing": [{field: None} for field in FIXTURE_FIELDS],  # deleted, not set
    "topics": [{"topics": value} for value in (
        None, "0x", {}, {WORD: 1}, 7, [WORD] * 5, [WORD, "0x" + "ab" * 31], [WORD, WORD + "ab"],
        [WORD, 7], [[WORD]])],
    "size": [{"tx_hash": "0x" + "ab" * 31}, {"tx_hash": WORD + "ab"}, {"address": "0x" + "ab" * 19},
             {"address": "0x" + "ab" * 21}, {"data": "0xabc"}],
    "prefix": [{field: prefix + body} for field, body in (
        ("tx_hash", "ab" * 32), ("address", "ab" * 20), ("data", "abcd"), ("topics", ""))
        for prefix in ("0X", "00", "x0", "")],  # a topic's: the prefix of a one-topic list
    "hex": [{field: value} for field, value in (
        ("tx_hash", "0x" + "ab" * 31 + "  "), ("address", "0x" + "gg" * 20),
        ("data", "0xab cd"), ("data", "0x\u0663\u0663"), ("topics", ["0x" + "00" * 31 + "\t\t"]),
        ("data", 7), ("address", None), ("tx_hash", ["0x"]))],
    "drawn-hex": [],  # hex_values draws the field
    "object": [5, None, "x", [1, 2], list(FIXTURE_FIELDS), 1.5, True],
}


@st.composite
def fixture_lines(draw, position, change):
    """One fixture line at `position` (its log index, and its block past
    10,000,000, so that no two lines conflict) with a `change` of
    LINE_CHANGES; written compact in `save_fixture`'s key order, with the
    keys reordered, with an extra key, with whitespace around it and
    between its tokens, with the hex digits in upper case, or malformed."""
    obj = json.loads(make_line(block=10_000_000 + position, log_index=position))
    obj.update(tx_hash=to_hex(draw(st.binary(min_size=32, max_size=32))),
               address=to_hex(draw(st.binary(min_size=20, max_size=20))),
               topics=[to_hex(draw(st.binary(min_size=32, max_size=32)))
                       for _ in range(draw(st.integers(0, 4)))],
               data=to_hex(draw(st.binary(max_size=40))))
    if change == "object":
        obj = draw(st.sampled_from(LINE_CHANGES[change]))
    elif change == "drawn-hex":
        field, value = draw(st.sampled_from([
            ("tx_hash", hex_values(32)), ("address", hex_values(20)), ("data", hex_values()),
            ("topics", st.lists(hex_values(32), max_size=5))]))
        obj[field] = draw(value)
    else:
        for field, value in draw(st.sampled_from(LINE_CHANGES[change])).items():
            if change == "missing":
                del obj[field]
            elif change == "prefix" and field == "topics":
                obj["topics"] = [value + "ab" * 32]
            else:
                obj[field] = value
    form = draw(st.sampled_from(["compact", "reordered", "extra", "upper", "padded",
                                 "malformed"]))
    if form == "reordered" and isinstance(obj, dict):
        obj = dict(draw(st.permutations(list(obj.items()))))
    elif form == "extra" and isinstance(obj, dict):
        obj["removed"] = draw(st.sampled_from([None, 1, "0x", []]))
    if form == "padded":
        text = json.dumps(obj, separators=(" , ", " : "))
        return draw(st.text(" \t\r", max_size=2)) + text + draw(st.text(" \t\r", max_size=2))
    text = json.dumps(obj, separators=(",", ":"))
    if form == "upper":  # the hex digits, past each 0x
        return re.sub(r'"0x[0-9a-f]+"', lambda hex_string: hex_string[0].upper().replace("0X", "0x"),
                      text)
    if form == "malformed":
        cut = draw(st.integers(0, len(text)))
        return text[:cut] + draw(st.sampled_from(["", "}", ",", "x", "}}", "]"])) + text[cut:]
    return text


JSON_TYPES = {list: "array", str: "string", int: "number", float: "number", bool: "boolean",
              type(None): "null"}


def raw_log_rule_by_rule(obj) -> RawLog:
    """A fixture object checked one documented rule at a time, in order,
    then read field by field with parse_hex."""
    if not isinstance(obj, dict):
        raise ValueError(f"a log must be a JSON object, got {JSON_TYPES[type(obj)]}")
    missing = [f for f in FIXTURE_FIELDS if f not in obj]
    if missing:
        raise ValueError(f"missing fields {missing}")
    if not isinstance(obj["topics"], list) or len(obj["topics"]) > 4:
        raise ValueError("topics must be a list of at most 4 items")
    for name in ("block_number", "timestamp", "log_index"):
        if type(obj[name]) is not int or obj[name] < 0:
            raise ValueError(f"{name} must be a non-negative integer")
    return raw_log_per_field(obj)


def load_fixture_per_line(path):
    """`load_fixture` as json.loads and `raw_log_rule_by_rule`, line by
    line: the logs, or the error's message and line."""
    logs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    logs.append(raw_log_rule_by_rule(json.loads(line.strip())))
                except ValueError as exc:
                    return str(exc), lineno
    return logs


@pytest.mark.parametrize("change", sorted(LINE_CHANGES))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), size=st.integers(1, 4))
def test_load_fixture_matches_a_rule_by_rule_reader(tmp_path_factory, change, data, size):
    """Valid lines around one line with the change."""
    changed = data.draw(st.integers(0, size - 1))
    lines = [data.draw(fixture_lines(position, change if position == changed else "none"))
             for position in range(size)]
    path = tmp_path_factory.mktemp("fixture") / "logs.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = load_fixture_per_line(path)
    try:
        got = load_fixture(path)
    except TableError as exc:
        got = str(exc).removeprefix(f"{path}, line {exc.line}: "), exc.line
    else:
        assert all(type(log) is RawLog for log in got)
    assert got == expected

