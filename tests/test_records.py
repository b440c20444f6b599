"""The record types' contract and the bytes of a small seeded pipeline.

The golden digests were taken from the dataclass-based records that the
tuple records replaced; the cancels.csv digest is that of the same file with
its three ratio columns cut (`cut -d, -f1-11,15-`), which the integer-only
layout writes. Both files are pure-Python formatting, so they do not depend
on the numpy version.
"""
import hashlib
import pickle
from datetime import datetime

import pytest

from lobcancel.cli import main
from lobcancel.lob import CancellationRecord, Trade
from lobcancel.orderflow import EventKind, OrderEvent, SessionPhase, Side
from lobcancel.profiles import AggressivenessClass, CancelObservation

GOLDEN_GEN = [
    "--events", "5000", "--seed", "7", "--instrument", "GOLD01",
    "--level-law", "lognormal:-2.14,1.11", "--queue-law", "exp:-25",
    "--mix", "0.5,0.1,0.4", "--levels", "20", "--queue-depth", "8",
]
GOLDEN_CSV_SHA256 = "a25cfa2c5a3b7ff4d8191b105037e159be3215c249c9715a2fbea6892da6a335"
GOLDEN_CANCELS_SHA256 = "9c89be088439886643f1fcfe668d09725e65c5e3dffa67e647af333ad6d7ae03"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_gen_csv_and_cancels_csv_bytes(tmp_path):
    stream = tmp_path / "gold.csv"
    assert main(["gen", "--out", str(stream), *GOLDEN_GEN]) == 0
    assert main(["profile", str(stream), "--out", str(tmp_path / "prof")]) == 0
    assert _sha256(stream) == GOLDEN_CSV_SHA256
    assert _sha256(tmp_path / "prof" / "cancels.csv") == GOLDEN_CANCELS_SHA256


def _record(**changes):
    fields = dict(cancel_index=4, side=Side.SELL, level_rank=2, side_levels=3,
                  level_orders=5, side_orders=9, queue_rank=5, cancelled_size=100)
    fields.update(changes)
    return CancellationRecord(**fields)


def _observation():
    return CancelObservation(
        "000777", 12, datetime(2003, 6, 2, 9, 31, 0, 250_000), SessionPhase.CONTINUOUS_AM,
        _record(), AggressivenessClass.AT_BEST, True, False,
    )


RECORDS = {
    "OrderEvent": lambda: OrderEvent(
        1, datetime(2003, 6, 2, 9, 31), "000777", 5, EventKind.LIMIT, Side.BUY, 1000, 100
    ),
    "Trade": lambda: Trade(1, 2, 1000, 50),
    "CancellationRecord": _record,
    "CancelObservation": _observation,
}


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_record_fields_cannot_be_assigned(kind):
    record = RECORDS[kind]()
    for name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either


def test_cancel_observation_survives_a_pickle_round_trip():
    # `profile --workers N` ships each job's InstrumentProfile and part-file path,
    # not its observations; an observation still pickles as its tuple does.
    obs = _observation()
    back = pickle.loads(pickle.dumps(obs))
    assert back == obs
    assert type(back) is CancelObservation and type(back.record) is CancellationRecord
    assert back.phase is obs.phase and back.record.side is Side.SELL
    assert back.order_class is AggressivenessClass.AT_BEST
    assert (back.record.rel_level, back.record.norm_level, back.record.queue_frac) == (
        obs.record.rel_level, obs.record.norm_level, obs.record.queue_frac
    )


@pytest.mark.parametrize(
    "changes",
    [
        {"level_rank": 4},           # beyond the occupied levels
        {"level_rank": 0},
        {"queue_rank": 6},           # beyond the queue
        {"level_orders": 10},        # more orders at the level than on the side
        {"cancelled_size": 0},
    ],
)
def test_inconsistent_cancellation_record_raises(changes):
    with pytest.raises(ValueError, match="inconsistent cancellation record"):
        _record(**changes)
    with pytest.raises(ValueError, match="inconsistent cancellation record"):
        _record()._replace(**changes)


def test_cancellation_record_keeps_its_derived_coordinates():
    rec = _record()
    assert (rec.rel_level, rec.norm_level, rec.queue_frac) == (2 / 3, (2 * 9) / (3 * 5), 1.0)
    assert pickle.loads(pickle.dumps(rec)) == rec
