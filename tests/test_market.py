import json
import math
import pickle
import tempfile
import threading
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dfcflow.errors import ConfigError, PriceFetchError, TableError, ValuationError
from dfcflow.market import DAY, HOUR, PriceSeries, fetch_prices, make_valuer
from dfcflow.registry import Currency
from dfcflow.util import SCALE, parse_fixed

F = Fraction
T0 = 1_600_000_000 - (1_600_000_000 % HOUR)  # aligned to an hour


def point(key, timestamp, price):
    """A `PriceSeries` point: `price`, a decimal, in 1/SCALE dollars."""
    units = F(price) * SCALE
    assert units.denominator == 1, price
    return key, timestamp, units.numerator


def hourly_series(prices):
    return PriceSeries(point("ETH", T0 + i * HOUR, price) for i, price in enumerate(prices))


def test_series_equals_the_same_points_and_survives_pickle():
    # the price reader of `dfcflow all` sends its series back pickled
    series = hourly_series(["100.5", "101.25"])
    assert PriceSeries([point("ETH", T0 + HOUR, "101.25"), point("ETH", T0, "100.5")]) == series
    assert pickle.loads(pickle.dumps(series, pickle.HIGHEST_PROTOCOL)) == series
    assert hourly_series(["100.5", "101.25"]) == series
    assert hourly_series(["100.5", "101.5"]) != series
    assert hourly_series(["100.5"]) != series


def test_query_exactly_at_a_point():
    series = hourly_series(["100.5", "101.25"])
    assert series.price_at("ETH", T0 + HOUR) == F("101.25")


def test_carry_forward_within_the_hour():
    series = hourly_series(["100.5", "101.25"])
    assert series.price_at("ETH", T0 + 30 * 60) == F("100.5")


def test_staleness_bound_is_twice_granularity():
    series = hourly_series(["100.5"])
    assert series.price_at("ETH", T0 + 2 * HOUR) == F("100.5")  # exactly at bound
    with pytest.raises(ValuationError) as err:
        series.price_at("ETH", T0 + 3 * HOUR)
    assert err.value.key == "ETH"
    assert err.value.timestamp == T0 + 3 * HOUR


def test_query_before_first_point_fails():
    series = hourly_series(["100.5"])
    with pytest.raises(ValuationError):
        series.price_at("ETH", T0 - 1)


def test_daily_usdt_has_a_two_day_bound():
    series = PriceSeries([point("USDT", T0, "1.0002")])
    assert series.price_at("USDT", T0 + 36 * HOUR) == F("1.0002")
    with pytest.raises(ValuationError):
        series.price_at("USDT", T0 + 2 * DAY + 1)


def test_adding_later_points_never_changes_earlier_answers():
    series = hourly_series(["100.5", "101.25"])
    longer = hourly_series(["100.5", "101.25", "150"])
    for offset in (0, 1800, HOUR):
        assert longer.price_at("ETH", T0 + offset) == series.price_at("ETH", T0 + offset)


def test_timestamps_must_strictly_increase():
    message = f"ETH timestamps must be strictly increasing \\(got {T0}\\)"
    with pytest.raises(ConfigError, match=message):
        PriceSeries([point("ETH", T0, "100.5"), point("ETH", T0 + HOUR, "99"),
                     point("ETH", T0, "101")])


def test_prices_must_be_positive():
    with pytest.raises(ConfigError, match=f"ETH price at {T0 + HOUR} is not positive"):
        PriceSeries([point("ETH", T0, "1"), point("ETH", T0 + HOUR, 0)])


def test_unknown_price_key_rejected():
    with pytest.raises(ConfigError, match="unknown price key 'DOGE'"):
        PriceSeries([point("DOGE", T0, 1)])


def test_value_usd_linearity_and_scaling():
    series = hourly_series(["1000.00"])
    weth = Currency("WETH", 18, "ETH")
    a, b = 17 * SCALE // 3, 5 * SCALE // 7
    total = series.value_usd(a + b, weth, T0)
    assert total == series.value_usd(a, weth, T0) + series.value_usd(b, weth, T0)
    assert series.value_usd(2 * SCALE, weth, T0) == 2000 * SCALE
    assert series.value_usd(0, weth, T0) == 0


def test_usdc_value_matches_spreadsheet_oracle():
    # hand-computed before the implementation: 1234.56 * 0.9991 = 1233.448896
    series = PriceSeries([point("USDC", T0, "0.9991")])
    usdc = Currency("USDC", 6, "USDC")
    assert series.value_usd(123456 * SCALE // 100, usdc, T0) == 1233448896 * SCALE // 10**6


def test_csv_round_trip_sorts_rows(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text(
        "price_key,timestamp,price_usd\n"
        f"ETH,{T0 + HOUR},101.25\n"
        f"BTC,{T0},9000\n"
        f"ETH,{T0},100.5\n"
    )
    series = PriceSeries.from_csv(path)
    assert series.price_at("ETH", T0) == F("100.5")
    assert series.price_at("BTC", T0) == F(9000)
    out = tmp_path / "out.csv"
    series.to_csv(out)
    assert PriceSeries.from_csv(out).price_at("ETH", T0 + HOUR) == F("101.25")


@pytest.mark.parametrize("cell", [
    "\u0661\u0662.\u0665", "\u00b2", "+1.5", " 1.5", "1_0.5", ".5", "5.",
    "1/3", "-4/6", "1e5", "1." + "0" * 36 + "1",
])
def test_price_cell_outside_the_written_forms_is_a_bad_row(tmp_path, cell):
    path = tmp_path / "prices.csv"
    path.write_text(f"price_key,timestamp,price_usd\nETH,{T0},100.5\nETH,{T0 + HOUR},{cell}\n",
                    encoding="utf-8")
    with pytest.raises(TableError) as info:
        PriceSeries.from_csv(path)
    assert info.value.line == 3
    assert str(info.value) == (f"{path}, line 3: invalid amount {cell!r}:"
                               " expected [-]digits[.digits], at most 36 decimals")


@settings(max_examples=300, deadline=None)
@given(st.text("0123456789.-+/ _e\u00b2\u0661", min_size=1, max_size=8))
@example(cell="0." + "0" * 35 + "1")
@example(cell="1." + "0" * 36 + "1")
@example(cell="-0")
def test_price_cell_reads_as_parse_fixed_reads_it(tmp_path_factory, cell):
    path = tmp_path_factory.mktemp("prices") / "prices.csv"
    path.write_text(f"price_key,timestamp,price_usd\nETH,{T0},{cell}\n", encoding="utf-8")
    try:
        units = parse_fixed(cell)
    except ValueError as exc:
        with pytest.raises(TableError, match="line 2: ") as info:
            PriceSeries.from_csv(path)
        assert str(info.value).endswith(str(exc))
        return
    if units <= 0:
        with pytest.raises(TableError, match=f"line 2: ETH price at {T0} is not positive$"):
            PriceSeries.from_csv(path)
    else:
        assert PriceSeries.from_csv(path).price_at("ETH", T0) == F(units, SCALE)


def test_make_valuer_uses_price_key_mapping():
    series = hourly_series(["250"])
    currencies = {"WETH": Currency("WETH", 18, "ETH")}
    valuer = make_valuer(series, currencies)
    assert valuer("WETH", 3 * SCALE, T0) == 750 * SCALE


# positive price cells: decimals of up to 36 places
price_cells = st.from_regex(r"[0-9]{1,13}(\.[0-9]{1,36})?", fullmatch=True).filter(
    lambda cell: F(cell) > 0)


@settings(max_examples=60, deadline=None)
@given(cells=st.lists(price_cells, min_size=1, max_size=12),
       amount=st.integers(min_value=0))
@example(cells=["100.5", "101.25", "0.125", "99.0001"], amount=7 * SCALE // 2)
@example(cells=["0." + "0" * 35 + "1", "9999999999999." + "9" * 36], amount=3 * SCALE + 1)
def test_integer_series_agrees_with_fraction_reference(cells, amount):
    prices = [F(cell) for cell in cells]
    series = hourly_series(cells)
    weth = Currency("WETH", 18, "ETH")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        series.to_csv(path)
        read_back = PriceSeries.from_csv(path)
    assert read_back == series
    for candidate in (series, read_back):
        for i, price in enumerate(prices):
            for ts in (T0 + i * HOUR, T0 + i * HOUR + HOUR // 2):
                assert candidate.price_at("ETH", ts) == price
                assert candidate.value_usd(amount, weth, ts) == math.floor(amount * price)
        # the correlation price change: close over open as a float
        for i, open_price in enumerate(prices):
            for j, close_price in enumerate(prices):
                ratio = (candidate.units_at("ETH", T0 + j * HOUR)
                         / candidate.units_at("ETH", T0 + i * HOUR))
                assert ratio == float(close_price / open_price)


# symbol -> the candles of one malformed or unusual reply
ODD_CANDLES = {
    "DECIMAL-USD": [[T0, 1, 2, 210.25, 4, 5], [T0 + HOUR, 1, 2, "0.1", 4, 5]],
    "FRACTIONAL-TIME": [[1600000000.7, 1, 2, 3, 4, 5]],
    "BOOLEAN-TIME": [[True, 1, 2, 3, 4, 5]],
    "STRING-TIME": [[str(T0), 1, 2, 3, 4, 5]],
    "NEGATIVE-TIME": [[-1, 1, 2, 3, 4, 5]],
    "EXPONENT-PRICE": [[T0, 1, 2, 1e-05, 4, 5]],
    "LONG-PRICE": [[T0, 1, 2, "0." + "0" * 36 + "1", 4, 5]],
    "RATIO-PRICE": [[T0, 1, 2, "1/3", 4, 5]],
    "ZERO-PRICE": [[T0, 1, 2, 0, 4, 5]],
}


class _CandleHandler(BaseHTTPRequestHandler):
    requested: list[str] = []  # every path served, by any server

    def do_GET(self):
        # /candles/<SYMBOL>?start=..&end=..
        self.requested.append(self.path)
        symbol = self.path.split("/")[2].split("?")[0]
        candles = ODD_CANDLES.get(symbol)
        if candles is None:
            base = {"BTC-USD": 9000, "ETH-USD": 210, "TWICE-USD": 1}[symbol]
            candles = [[T0 + i * HOUR, 1, 2, base + i, 4, 5] for i in range(3)]
        if symbol == "TWICE-USD":  # every candle sent twice
            candles += candles
        body = json.dumps(candles).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def candle_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CandleHandler)
    # a short poll keeps shutdown() from waiting half a second per test
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()


def test_fetch_prices_from_candle_endpoint(candle_server):
    series = fetch_prices({
        "url_template": candle_server + "/candles/{key}?start={start}&end={end}",
        "key_map": {"BTC": "BTC-USD", "ETH": "ETH-USD"},
        "start": T0,
        "end": T0 + 3 * HOUR,
        "timestamp_field": 0,
        "price_field": 3,
    })
    assert series.price_at("BTC", T0 + HOUR) == F(9001)
    assert series.price_at("ETH", T0 + 2 * HOUR) == F(212)


def test_fetched_candles_repeating_a_time_are_rejected(candle_server):
    message = f"ETH timestamps must be strictly increasing \\(got {T0}\\)"
    with pytest.raises(ConfigError, match=message):
        fetch_prices({"url_template": candle_server + "/candles/{key}",
                      "key_map": {"ETH": "TWICE-USD"}})


def test_fetch_prices_requires_template_and_map():
    with pytest.raises(ConfigError):
        fetch_prices({"url_template": "http://x/{key}"})


def test_candle_that_does_not_parse_names_the_key_and_url(candle_server):
    with pytest.raises(PriceFetchError, match="BTC candles from .*/candles/BTC-USD: bad candle"):
        fetch_prices({
            "url_template": candle_server + "/candles/{key}",
            "key_map": {"BTC": "BTC-USD"},
            "price_field": 9,  # each candle has six entries
        })


def test_fetched_prices_are_read_as_price_cells(candle_server):
    series = fetch_prices({"url_template": candle_server + "/candles/{key}",
                           "key_map": {"ETH": "DECIMAL-USD"}})
    assert series.price_at("ETH", T0) == F("210.25")
    assert series.price_at("ETH", T0 + HOUR) == F("0.1")  # the JSON text, not the binary float


GRAMMAR = "expected [-]digits[.digits], at most 36 decimals"
# symbol in ODD_CANDLES -> the error its candle gives
CANDLE_ERRORS = {
    "FRACTIONAL-TIME": "timestamp 1600000000.7 is not an integer",
    "BOOLEAN-TIME": "timestamp True is not an integer",
    "STRING-TIME": f"timestamp '{T0}' is not an integer",
    "NEGATIVE-TIME": "invalid timestamp '-1': expected ASCII digits",
    "EXPONENT-PRICE": f"invalid amount '1e-05': {GRAMMAR}",
    "LONG-PRICE": f"invalid amount '0.{'0' * 36}1': {GRAMMAR}",
    "RATIO-PRICE": f"invalid amount '1/3': {GRAMMAR}",
    "ZERO-PRICE": f"ETH price at {T0} is not positive",
}


@pytest.mark.parametrize("symbol", sorted(CANDLE_ERRORS))
def test_candle_outside_the_price_grammar_names_the_key_and_url(candle_server, symbol):
    with pytest.raises(PriceFetchError) as info:
        fetch_prices({"url_template": candle_server + "/candles/{key}",
                      "key_map": {"ETH": symbol}})
    assert str(info.value) == (f"ETH candles from {candle_server}/candles/{symbol}:"
                               f" bad candle: {CANDLE_ERRORS[symbol]}")


@pytest.mark.parametrize("field, value, expected", [
    ("delay_seconds", -1, "a number >= 0"),
    ("delay_seconds", "1", "a number >= 0"),
    ("delay_seconds", True, "a number >= 0"),
    ("delay_seconds", float("nan"), "a number >= 0"),
    ("delay_seconds", float("inf"), "a number >= 0"),
    ("timestamp_field", -1, "an integer >= 0"),
    ("timestamp_field", 1.0, "an integer >= 0"),
    ("price_field", "3", "an integer >= 0"),
    ("price_field", False, "an integer >= 0"),
    ("start", None, "an integer >= 0"),
    ("start", True, "an integer >= 0"),
    ("end", -1, "an integer >= 0"),
    ("end", str(T0), "an integer >= 0"),
    *(("url_template", template, "a string naming only {key}, {start} and {end}")
      for template in (5, "/candles/{symbol}", "/candles/{key", "/candles/{0}",
                       "/candles/{key.upper}")),
])
def test_fetch_settings_are_checked_before_any_request(candle_server, field, value, expected):
    served = len(_CandleHandler.requested)
    with pytest.raises(ConfigError) as info:
        fetch_prices({"url_template": candle_server + "/candles/{key}?start={start}&end={end}",
                      "key_map": {"BTC": "BTC-USD", "ETH": "ETH-USD"},
                      "start": T0, "end": T0 + 3 * HOUR, field: value})
    assert str(info.value) == f"price_fetch {field} must be {expected}, got {value!r}"
    assert len(_CandleHandler.requested) == served


def test_template_whose_format_spec_fails_is_rejected_before_any_request(candle_server):
    served = len(_CandleHandler.requested)
    with pytest.raises(ConfigError, match="^price_fetch url_template .* cannot be filled: "):
        fetch_prices({"url_template": candle_server + "/candles/{key:d}",
                      "key_map": {"BTC": "BTC-USD"}})
    assert len(_CandleHandler.requested) == served


def test_unknown_fetched_price_key_is_rejected_before_any_request(candle_server):
    served = len(_CandleHandler.requested)
    with pytest.raises(ConfigError, match="^unknown price key 'DOGE'$"):
        fetch_prices({"url_template": candle_server + "/candles/{key}",
                      "key_map": {"BTC": "BTC-USD", "DOGE": "DOGE-USD"}})
    assert len(_CandleHandler.requested) == served


def test_fetch_waits_the_configured_delay(candle_server, monkeypatch):
    slept = []
    monkeypatch.setattr("dfcflow.market.time.sleep", slept.append)
    fetch_prices({"url_template": candle_server + "/candles/{key}",
                  "key_map": {"BTC": "BTC-USD", "ETH": "ETH-USD"}, "delay_seconds": 0.25})
    assert slept == [0.25, 0.25]
