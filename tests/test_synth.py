import random
from datetime import date, datetime, timedelta
from itertools import islice

import numpy as np
import pytest

from lobcancel.cli import main
from lobcancel.lob import LimitOrderBook
from lobcancel.orderflow import (
    CONTINUOUS_PHASES,
    EventKind,
    SessionPhase,
    parse_stream,
    phase_of,
    serialize_events,
)
from lobcancel.synth import (
    AM_MS,
    PM_MS,
    ConfigInvalid,
    ExpProfileLaw,
    GenConfig,
    QueueSimConfig,
    TruncLogNormalLaw,
    UniformLaw,
    _RankSampler,
    generate_stream,
    session_stamps,
    simulate_uniform_queues,
)

SMALL = dict(n_events=5_000, initial_levels=12, initial_queue=3)


def test_same_seed_identical_streams():
    a = generate_stream(GenConfig(seed=21, **SMALL))
    b = generate_stream(GenConfig(seed=21, **SMALL))
    assert a == b


def test_different_seed_differs():
    a = generate_stream(GenConfig(seed=1, **SMALL))
    b = generate_stream(GenConfig(seed=2, **SMALL))
    assert a != b


def test_zero_cancel_share_emits_no_cancels():
    cfg = GenConfig(seed=5, limit_share=0.7, marketable_share=0.3, cancel_share=0.0, **SMALL)
    events = generate_stream(cfg)
    assert all(ev.kind is not EventKind.CANCEL for ev in events)


def test_stream_has_exact_length_and_valid_schema():
    events = generate_stream(GenConfig(seed=9, **SMALL))
    assert len(events) == SMALL["n_events"]
    result = parse_stream(serialize_events(events))
    assert result.ok
    assert result.events == events


def test_stream_replays_without_dangling_cancels():
    events = generate_stream(GenConfig(seed=33, **SMALL))
    book = LimitOrderBook()
    for ev in events:
        book.apply(ev)  # any DanglingCancel would raise
    book.check_invariants()


def test_stream_timestamps_continuous_and_monotone():
    events = generate_stream(GenConfig(seed=2, **SMALL))
    stamps = [ev.timestamp for ev in events]
    assert stamps == sorted(stamps)
    assert all(phase_of(ts) in CONTINUOUS_PHASES for ts in stamps)


def test_large_stream_spills_into_afternoon_session():
    events = generate_stream(GenConfig(seed=2, n_events=20_000, initial_levels=10, initial_queue=2))
    phases = {phase_of(ev.timestamp) for ev in events}
    assert len(phases) == 2  # morning and afternoon


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        GenConfig(limit_share=0.5, marketable_share=0.5, cancel_share=0.5)
    with pytest.raises(ConfigInvalid):
        GenConfig(limit_share=-0.1, marketable_share=0.9, cancel_share=0.2)
    with pytest.raises(ConfigInvalid):
        GenConfig(n_events=-1)
    with pytest.raises(ConfigInvalid):
        GenConfig(initial_levels=0)
    with pytest.raises(ConfigInvalid):
        GenConfig(initial_levels=50, mid_price_ticks=30)


def test_event_count_is_capped_at_one_a_millisecond_of_the_sessions():
    # Beyond the cap the stamps would run past 15:00, and then into the next day.
    assert GenConfig(n_events=AM_MS + PM_MS).n_events == 14_400_000
    with pytest.raises(ConfigInvalid, match="14400000"):
        GenConfig(n_events=AM_MS + PM_MS + 1)


def _session_datetime(day: date, ms: int) -> datetime:
    """The wall-clock time of session millisecond ms, by timedelta arithmetic."""
    if ms < AM_MS:
        return datetime(day.year, day.month, day.day, 9, 30) + timedelta(milliseconds=ms)
    return datetime(day.year, day.month, day.day, 13, 0) + timedelta(milliseconds=ms - AM_MS)


def _stamp_at(day: date, ms: int, text: bool):
    """The stamp of session millisecond ms: the second of a walk in steps of ms."""
    return list(islice(session_stamps(day, ms, text), 2))[-1]


@pytest.mark.parametrize("ms", [0, 999, 1000, 59_999, 60_000, AM_MS - 1, AM_MS, AM_MS + PM_MS - 1])
def test_session_stamp_is_the_datetime_and_its_isoformat_text(ms):
    day = date(2003, 6, 2)
    want = _session_datetime(day, ms)
    assert _stamp_at(day, ms, False) == want
    assert _stamp_at(day, ms, True) == want.isoformat("T", "milliseconds")


def test_session_stamps_of_the_session_edges():
    day = date(2003, 6, 2)
    edges = [0, AM_MS - 1, AM_MS, AM_MS + PM_MS - 1]
    assert [_stamp_at(day, ms, True) for ms in edges] == [
        "2003-06-02T09:30:00.000", "2003-06-02T11:29:59.999",
        "2003-06-02T13:00:00.000", "2003-06-02T14:59:59.999",
    ]


@pytest.mark.parametrize("dt_ms", [1, 7, 333, 700, 1000])
def test_session_stamps_step_across_seconds_and_the_lunch_break(dt_ms):
    day = date(999, 12, 31)  # isoformat pads the year to four digits
    n = AM_MS // dt_ms + 5 if dt_ms > 100 else 3000  # past 13:00, or past a few seconds
    want = [_session_datetime(day, i * dt_ms) for i in range(n)]
    assert list(islice(session_stamps(day, dt_ms, False), n)) == want
    assert list(islice(session_stamps(day, dt_ms, True), n)) == [
        ts.isoformat("T", "milliseconds") for ts in want
    ]


@pytest.mark.parametrize("n_events", [20_000, 5_000], ids=["crosses_lunch", "dt_1000ms"])
def test_gen_writes_the_serialized_generate_stream(tmp_path, capsys, n_events):
    out = tmp_path / "flow.csv"
    assert main(["gen", "--out", str(out), "--events", str(n_events), "--seed", "11",
                 "--levels", "10", "--queue-depth", "2", "--mix", "0.5,0.2,0.3"]) == 0
    events = generate_stream(GenConfig(seed=11, n_events=n_events, initial_levels=10,
                                       initial_queue=2, limit_share=0.5,
                                       marketable_share=0.2, cancel_share=0.3))
    if n_events == 5_000:
        assert events[1].timestamp - events[0].timestamp == timedelta(seconds=1)
    else:
        assert {phase_of(ev.timestamp) for ev in events} == {
            SessionPhase.CONTINUOUS_AM, SessionPhase.CONTINUOUS_PM}
    text = out.read_text(encoding="utf-8")
    # Lines, not the whole text: a failing list compare is reported at its first
    # differing item, where a long string gets a slow line-by-line diff.
    assert text.split("\n") == serialize_events(events).split("\n")
    assert parse_stream(text).events == events


@pytest.mark.parametrize("law,params", [
    (TruncLogNormalLaw, (0.0, 0.0)),
    (TruncLogNormalLaw, (-2.0, -1.0)),
    (TruncLogNormalLaw, (float("nan"), 1.0)),
    (TruncLogNormalLaw, (0.0, float("inf"))),
    (ExpProfileLaw, (0.0,)),
    (ExpProfileLaw, (5.0,)),
    (ExpProfileLaw, (float("-inf"),)),
], ids=lambda v: v.__name__ if isinstance(v, type) else ",".join(map(str, v)))
def test_law_parameters_are_checked(law, params):
    with pytest.raises(ConfigInvalid):
        law(*params)


def test_underflowing_lognormal_law_draws_uniform_ranks():
    # Every weight of this law underflows to 0 on a 10-rank grid.
    sampler = _RankSampler(TruncLogNormalLaw(-50.0, 0.1), random.Random(1))
    assert sampler._weights(10) == [float(k) for k in range(1, 11)]


def test_injected_laws_shape_the_positions():
    cfg = GenConfig(
        seed=6,
        n_events=40_000,
        level_law=TruncLogNormalLaw(-2.14, 1.11),
        queue_law=ExpProfileLaw(-25.0),
        limit_share=0.6,
        marketable_share=0.0,
        cancel_share=0.4,
        initial_levels=40,
        initial_queue=20,
    )
    events = generate_stream(cfg)
    book = LimitOrderBook()
    rel_levels, queue_fracs = [], []
    for ev in events:
        out = book.apply(ev)
        if out.cancellation is not None:
            rel_levels.append(out.cancellation.rel_level)
            queue_fracs.append(out.cancellation.queue_frac)
    rel_levels = np.asarray(rel_levels)
    queue_fracs = np.asarray(queue_fracs)
    assert rel_levels.size > 5_000
    # log-normal level law: most cancels near the front, median well below 0.5
    assert np.median(rel_levels) < 0.3
    # depressed-front queue law: little mass below 0.04
    assert np.mean(queue_fracs < 0.04) < 0.02


def test_uniform_laws_are_flat():
    cfg = GenConfig(seed=7, n_events=40_000, level_law=UniformLaw(), queue_law=UniformLaw(),
                    initial_levels=30, initial_queue=6, limit_share=0.6,
                    marketable_share=0.0, cancel_share=0.4)
    events = generate_stream(cfg)
    book = LimitOrderBook()
    rel = [out.cancellation.rel_level for out in map(book.apply, events) if out.cancellation]
    assert 0.4 < float(np.median(rel)) < 0.6


# -- uniform-queue experiment -----------------------------------------------------


HARMONIC_100 = sum(1.0 / n for n in range(1, 101))
HARMONIC_50 = sum(1.0 / n for n in range(1, 51))


def test_queue_sim_analytic_point_masses():
    result = simulate_uniform_queues(QueueSimConfig(n_queues=1_000_000, seed=0))
    assert result.prob_at(1.0) == pytest.approx(HARMONIC_100 / 100.0, abs=1e-3)
    assert result.prob_at(0.5) == pytest.approx(HARMONIC_50 / 200.0, abs=1e-3)


def test_queue_sim_two_largest_masses_are_one_then_half():
    result = simulate_uniform_queues(QueueSimConfig(n_queues=500_000, seed=1))
    (v1, p1), (v2, p2) = result.top_masses(2)
    assert v1 == 1.0 and v2 == 0.5
    assert p1 > p2


def test_queue_sim_pdf_normalized_with_dominant_bins():
    result = simulate_uniform_queues(QueueSimConfig(n_queues=200_000, seed=2))
    pdf = result.pdf
    assert abs(pdf.integral() - 1.0) <= 1e-9
    # the bins holding 1.0 and 0.5 dominate everything else
    top_two = set(np.argsort(pdf.density)[-2:])
    assert top_two == {len(pdf.density) - 1, int(np.searchsorted(pdf.bin_edges, 0.5))}


def test_queue_sim_peaks_at_tenths_in_point_masses():
    result = simulate_uniform_queues(QueueSimConfig(n_queues=1_000_000, seed=2))
    values, probs = result.mass_values, result.mass_probs
    for m in range(1, 11):
        v = m / 10.0
        idx = int(np.searchsorted(values, v))
        assert values[idx] == v
        if idx > 0:
            assert probs[idx] > probs[idx - 1]
        if idx + 1 < values.size:
            assert probs[idx] > probs[idx + 1]


def test_queue_sim_single_queue_normalizes():
    result = simulate_uniform_queues(QueueSimConfig(n_queues=1, seed=3))
    assert result.mass_values.size == 1
    assert result.mass_probs[0] == 1.0
    assert abs(result.pdf.integral() - 1.0) <= 1e-9


def test_queue_sim_deterministic():
    a = simulate_uniform_queues(QueueSimConfig(n_queues=10_000, seed=5))
    b = simulate_uniform_queues(QueueSimConfig(n_queues=10_000, seed=5))
    assert np.array_equal(a.mass_values, b.mass_values)
    assert np.array_equal(a.mass_probs, b.mass_probs)


def test_queue_sim_config_validation():
    with pytest.raises(ConfigInvalid):
        QueueSimConfig(n_queues=0)
    with pytest.raises(ConfigInvalid):
        QueueSimConfig(max_length=0)
