"""Shared fixtures: the hand-enumerated 20-order stream and small helpers."""
import gc
import hashlib
import json
from datetime import datetime, timedelta

import pytest

from lobcancel.orderflow import EventKind, OrderEvent, Side, serialize_events
from lobcancel.reportio import render_json

# 20 submissions (ids 101-120) plus 8 full cancels, one instrument-day, all in
# the morning continuous session. Classes were enumerated by hand while
# building the stream: every side carries exactly two orders of each
# aggressiveness class, and exactly one order per cancellable class per side
# is cancelled at the end.
FIXTURE_ROWS = [
    # kind, side, price, size, order_id
    ("L", "S", 1020, 100, 101),  # sell inside_book (both books empty)
    ("L", "B", 980, 100, 102),   # buy inside_spread (own book empty, below ask)
    ("L", "S", 1010, 60, 103),   # sell inside_spread
    ("L", "S", 1010, 40, 104),   # sell at_best
    ("L", "B", 990, 60, 105),    # buy inside_spread
    ("L", "B", 990, 40, 106),    # buy at_best
    ("L", "S", 1021, 50, 107),   # sell inside_book
    ("L", "B", 979, 50, 108),    # buy inside_book
    ("L", "B", 978, 50, 109),    # buy inside_book
    ("M", "B", 1010, 25, 110),   # buy fully_filled (eats 25 of 103)
    ("M", "B", 1010, 140, 111),  # buy partially_filled (eats 103+104, rests 65 @1010)
    ("M", "S", 1010, 15, 112),   # sell fully_filled (eats 15 of 111)
    ("M", "S", 1010, 20, 113),   # sell fully_filled (eats 20 of 111)
    ("M", "S", 991, 60, 114),    # sell partially_filled (eats 30 of 111, rests 30 @991)
    ("M", "S", 981, 130, 115),   # sell partially_filled (eats 105+106, rests 30 @981)
    ("M", "B", 981, 12, 116),    # buy fully_filled (eats 12 of 115)
    ("M", "B", 981, 63, 117),    # buy partially_filled (eats 18 of 115, rests 45 @981)
    ("L", "B", 981, 25, 118),    # buy at_best
    ("L", "S", 991, 35, 119),    # sell at_best
    ("L", "S", 985, 30, 120),    # sell inside_spread
    ("C", "B", 981, 0, 117),
    ("C", "B", 980, 0, 102),
    ("C", "B", 981, 0, 118),
    ("C", "B", 978, 0, 109),
    ("C", "S", 991, 0, 114),
    ("C", "S", 985, 0, 120),
    ("C", "S", 991, 0, 119),
    ("C", "S", 1020, 0, 101),
]

FIXTURE_INSTRUMENT = "000777"

FIXTURE_TRADES = [
    (103, 110, 1010, 25),
    (103, 111, 1010, 35),
    (104, 111, 1010, 40),
    (111, 112, 1010, 15),
    (111, 113, 1010, 20),
    (111, 114, 1010, 30),
    (105, 115, 990, 60),
    (106, 115, 990, 40),
    (115, 116, 981, 12),
    (115, 117, 981, 18),
]

# (cancel_index, side, level_rank, side_levels, level_orders, queue_rank,
#  side_orders, rel_level, norm_level, queue_frac, cancelled_size)
FIXTURE_CANCEL_RECORDS = [
    (1, "B", 1, 4, 2, 1, 5, 0.25, 0.625, 0.5, 45),
    (2, "B", 2, 4, 1, 1, 4, 0.5, 2.0, 1.0, 100),
    (3, "B", 1, 3, 1, 1, 3, 1 / 3, 1.0, 1.0, 25),
    (4, "B", 2, 2, 1, 1, 2, 1.0, 2.0, 1.0, 50),
    (5, "S", 2, 4, 2, 1, 5, 0.5, 1.25, 0.5, 30),
    (6, "S", 1, 4, 1, 1, 4, 0.25, 1.0, 1.0, 30),
    (7, "S", 1, 3, 1, 1, 3, 1 / 3, 1.0, 1.0, 35),
    (8, "S", 1, 2, 1, 1, 2, 0.5, 1.0, 1.0, 100),
]

FIXTURE_CLASSES = {
    101: "inside_book", 102: "inside_spread", 103: "inside_spread", 104: "at_best",
    105: "inside_spread", 106: "at_best", 107: "inside_book", 108: "inside_book",
    109: "inside_book", 110: "fully_filled", 111: "partially_filled", 112: "fully_filled",
    113: "fully_filled", 114: "partially_filled", 115: "partially_filled",
    116: "fully_filled", 117: "partially_filled", 118: "at_best", 119: "at_best",
    120: "inside_spread",
}


def build_fixture_events() -> list[OrderEvent]:
    base = datetime(2003, 6, 2, 9, 31, 0)
    return [
        OrderEvent(
            seq=i + 1,
            timestamp=base + timedelta(seconds=i),
            instrument=FIXTURE_INSTRUMENT,
            order_id=oid,
            kind=EventKind(kind),
            side=Side(side),
            price_ticks=price,
            size=size,
        )
        for i, (kind, side, price, size, oid) in enumerate(FIXTURE_ROWS)
    ]


@pytest.fixture
def fixture_events() -> list[OrderEvent]:
    return build_fixture_events()


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "fixture.csv"
    path.write_text(serialize_events(build_fixture_events()), encoding="utf-8")
    return path


@pytest.fixture
def collector_state():
    """Set the collector on or off for one test, restoring the session's state."""
    was_enabled = gc.isenabled()

    def set_state(enabled):
        (gc.enable if enabled else gc.disable)()

    yield set_state
    set_state(was_enabled)


def table_total(table: dict[int, dict[int, int]]) -> int:
    """The number of cancels a ``{n: {k: count}}`` count table holds."""
    return sum(sum(row.values()) for row in table.values())


def profiles_sha256(path) -> str:
    """sha256 of profiles.json rendered again with each log-uniform density's
    edges and values cut to 10 significant digits.

    Those floats come from np.geomspace, which runs numpy's SIMD log10 and
    power, and their last bits differ from one CPU to another (with and
    without AVX-512 they differ). No other number of the file comes from
    those kernels.
    """
    payload = json.loads(path.read_text(encoding="utf-8"))
    for block in (*payload["instruments"], payload["ensemble"]):
        for side in block["sides"].values():
            pdf = side["pdf_norm_level"]
            if pdf is not None:
                for key in ("edges", "density"):
                    pdf[key] = [float(f"{x:.10g}") for x in pdf[key]]
    return hashlib.sha256(render_json(payload).encode("utf-8")).hexdigest()


def fits_sha256(path) -> str:
    """sha256 of fits.json rendered again with each gamma entry's float
    params cut to 10 significant digits.

    The least-squares fits evaluate their laws with numpy's SIMD exp and
    log. On test_records' deep golden config, only the gamma entries read
    differently with numpy's AVX-512 kernels and without them (the last bit
    of their rms); every other entry keeps its bytes.
    """
    payload = json.loads(path.read_text(encoding="utf-8"))
    for entry in payload["fits"]:
        if entry["model"] == "gamma" and "params" in entry:
            params = entry["params"]
            for key, value in params.items():
                if type(value) is float:
                    params[key] = float(f"{value:.10g}")
    return hashlib.sha256(render_json(payload).encode("utf-8")).hexdigest()
