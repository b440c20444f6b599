import gc
import math
import random
from collections import Counter
from datetime import datetime, timedelta

import numpy as np
import pytest

from conftest import (
    FIXTURE_CANCEL_RECORDS,
    FIXTURE_CLASSES,
    FIXTURE_TRADES,
)
from lobcancel.lob import CrossedBookInvariantViolation, LimitOrderBook
from lobcancel.orderflow import EventKind, OrderEvent, SessionPhase, Side
from lobcancel.profiles import (
    AggressivenessClass,
    BinSpec,
    EmptySample,
    InstrumentProfile,
    PdfError,
    SampleOutsideDomain,
    accumulate_pdf,
    classify_submission,
    profile_events,
    ratio_report,
    replay_day,
)
from lobcancel.synth import GenConfig, generate_stream

B, S = Side.BUY, Side.SELL
AC = AggressivenessClass


# -- classification ------------------------------------------------------------


def test_classify_at_best_no_fill():
    assert classify_submission(B, 1000, 1000, 1010, False, True) is AC.AT_BEST
    assert classify_submission(S, 1010, 1000, 1010, False, True) is AC.AT_BEST


def test_classify_fully_filled_on_arrival():
    assert classify_submission(B, 1010, 1000, 1010, True, False) is AC.FULLY_FILLED


def test_classify_partial_fill_with_rest():
    assert classify_submission(B, 1010, 1000, 1010, True, True) is AC.PARTIALLY_FILLED


def test_classify_inside_spread_and_inside_book():
    assert classify_submission(B, 1005, 1000, 1010, False, True) is AC.INSIDE_SPREAD
    assert classify_submission(B, 995, 1000, 1010, False, True) is AC.INSIDE_BOOK
    assert classify_submission(S, 1005, 1000, 1010, False, True) is AC.INSIDE_SPREAD
    assert classify_submission(S, 1020, 1000, 1010, False, True) is AC.INSIDE_BOOK


def test_classify_empty_same_side():
    # empty own book, inside the opposite best -> inside_spread
    assert classify_submission(B, 990, None, 1010, False, True) is AC.INSIDE_SPREAD
    assert classify_submission(S, 1020, 1000, None, False, True) is AC.INSIDE_SPREAD
    # both books empty -> inside_book
    assert classify_submission(B, 990, None, None, False, True) is AC.INSIDE_BOOK


def test_fixture_classes_match_hand_enumeration(fixture_events):
    # Classes are counted at submission, so replaying one more submission
    # raises the count of exactly its class by one.
    got = {}
    before = Counter()
    for i, ev in enumerate(fixture_events):
        if ev.kind is EventKind.CANCEL:
            continue
        day = replay_day(fixture_events[: i + 1])
        after = day.buy.orders_by_class + day.sell.orders_by_class
        (klass,) = (after - before).elements()
        got[ev.order_id] = klass.value
        before = after
    assert got == FIXTURE_CLASSES


def test_lifecycles_hold_only_resting_orders(fixture_events):
    for end in range(1, len(fixture_events) + 1):
        day = replay_day(fixture_events[:end])
        assert set(day.lifecycles) == set(day.book.index)
    assert {oid: life.klass.value for oid, life in day.lifecycles.items()} == {
        oid: FIXTURE_CLASSES[oid] for oid in day.book.index
    }


def test_fixture_trades_match_hand_enumeration(fixture_events):
    day = replay_day(fixture_events, collect_trades=True)
    got = [(t.maker_id, t.taker_id, t.price_ticks, t.size) for t in day.trades]
    assert got == FIXTURE_TRADES


def test_fixture_cancellation_records(fixture_events):
    day = replay_day(fixture_events)
    assert len(day.observations) == len(FIXTURE_CANCEL_RECORDS)
    for obs, want in zip(day.observations, FIXTURE_CANCEL_RECORDS):
        idx, side, x, levels, n_at, y, n_side, rel, norm, frac, size = want
        rec = obs.record
        assert rec.cancel_index == idx
        assert rec.side is Side(side)
        assert (rec.level_rank, rec.side_levels) == (x, levels)
        assert (rec.level_orders, rec.queue_rank, rec.side_orders) == (n_at, y, n_side)
        assert rec.rel_level == pytest.approx(rel, abs=1e-15)
        assert rec.norm_level == pytest.approx(norm, abs=1e-15)
        assert rec.queue_frac == pytest.approx(frac, abs=1e-15)
        assert rec.cancelled_size == size
        assert obs.in_profile and obs.in_ratio


def test_fixture_ratios(fixture_events):
    day = replay_day(fixture_events)
    profile = InstrumentProfile(day.instrument)
    profile.add_day(day)
    for acc in (profile.buy, profile.sell):
        rr = ratio_report(acc)
        assert rr.orders == 10
        assert rr.cancelled_orders == 4
        assert rr.cancel_events == 4
        assert rr.ratio == pytest.approx(0.4)
        for klass in (AC.PARTIALLY_FILLED, AC.INSIDE_SPREAD, AC.AT_BEST, AC.INSIDE_BOOK):
            assert rr.by_class[klass].orders == 2
            assert rr.by_class[klass].cancelled == 1
            assert rr.by_class[klass].ratio == pytest.approx(0.5)
        assert acc.orders_by_class[AC.FULLY_FILLED] == 2


def test_ratio_simple_arithmetic():
    # 10 buy orders, 2 cancelled -> r = 0.2
    base = datetime(2003, 6, 2, 10, 0, 0)
    events = [
        OrderEvent(i + 1, base + timedelta(seconds=i), "X", i + 1,
                   EventKind.LIMIT, B, 1000 - i, 10)
        for i in range(10)
    ]
    for j, victim in enumerate((3, 7)):
        events.append(
            OrderEvent(11 + j, base + timedelta(seconds=20 + j), "X", victim,
                       EventKind.CANCEL, B, 0, 0)
        )
    day = replay_day(events)
    profile = InstrumentProfile("X")
    profile.add_day(day)
    assert ratio_report(profile.buy).ratio == pytest.approx(0.2)


# -- coordinate helpers -----------------------------------------------------------


def rec_stub(x, levels, n_at, y, n_side):
    from lobcancel.lob import CancellationRecord

    return CancellationRecord(
        cancel_index=1, side=B, level_rank=x, side_levels=levels, level_orders=n_at,
        side_orders=n_side, queue_rank=y, cancelled_size=1,
    )


def test_relative_level_arithmetic():
    assert rec_stub(2, 5, 1, 1, 5).rel_level == pytest.approx(0.4)
    assert rec_stub(5, 5, 1, 1, 5).rel_level == 1.0
    assert rec_stub(1, 1, 1, 1, 1).rel_level == 1.0


def test_normalized_level_arithmetic():
    assert rec_stub(2, 5, 3, 1, 30).norm_level == pytest.approx(4.0)
    # flat book: every level holds the same queue length -> exactly the rank
    for levels, q in [(4, 5), (3, 7), (11, 3)]:
        for x in range(1, levels + 1):
            assert rec_stub(x, levels, q, 1, levels * q).norm_level == float(x)


def test_relative_queue_position_arithmetic():
    assert rec_stub(1, 1, 2, 2, 2).queue_frac == 1.0
    assert rec_stub(1, 1, 1, 1, 1).queue_frac == 1.0
    assert rec_stub(1, 1, 10, 1, 10).queue_frac == pytest.approx(0.1)


def test_record_domain_invariants_on_generated_stream():
    events = generate_stream(GenConfig(seed=4, n_events=4000, initial_levels=20, initial_queue=4))
    seen = 0
    for obs in replay_day(events).observations:
        rec = obs.record
        assert 0.0 < rec.rel_level <= 1.0
        assert 0.0 < rec.queue_frac <= 1.0
        assert rec.norm_level > 0.0
        assert abs(rec.rel_level * rec.side_levels - rec.level_rank) < 1e-9
        assert abs(rec.queue_frac * rec.level_orders - rec.queue_rank) < 1e-9
        seen += 1
    assert seen > 100


def test_norm_level_matches_snapshot_recompute():
    # replay a generated stream, recomputing every record from book queries
    events = generate_stream(GenConfig(seed=9, n_events=3000, initial_levels=15, initial_queue=4))
    book = LimitOrderBook()
    for ev in events:
        if ev.kind is EventKind.CANCEL:
            side = book.index[ev.order_id].side
            x = book.level_rank(side, book.index[ev.order_id].price_ticks)
            y = book.queue_position(ev.order_id)
            levels, n_side, per_level = book.snapshot_depth(side)
            n_at = per_level[x - 1]
            outcome = book.apply(ev)
            rec = outcome.cancellation
            assert (rec.level_rank, rec.queue_rank) == (x, y)
            assert (rec.side_levels, rec.side_orders, rec.level_orders) == (levels, n_side, n_at)
            assert rec.norm_level == pytest.approx((x / levels) * n_side / n_at, rel=1e-12)
        else:
            book.apply(ev)


# -- session phases ----------------------------------------------------------------


def phased_events():
    day = datetime(2003, 6, 2, 0, 0)

    def at(hh, mm, ss):
        return day.replace(hour=hh, minute=mm, second=ss)

    return [
        OrderEvent(1, at(9, 20, 0), "P", 1, EventKind.LIMIT, B, 1000, 100),
        OrderEvent(2, at(9, 21, 0), "P", 2, EventKind.LIMIT, S, 1010, 50),
        OrderEvent(3, at(9, 26, 0), "P", 1, EventKind.CANCEL, B, 0, 40),
        OrderEvent(4, at(9, 30, 5), "P", 3, EventKind.LIMIT, B, 1005, 30),
        OrderEvent(5, at(9, 31, 0), "P", 1, EventKind.CANCEL, B, 0, 0),
        OrderEvent(6, at(9, 32, 0), "P", 3, EventKind.CANCEL, B, 0, 0),
    ]


def test_call_and_cool_events_held_then_flushed():
    day = replay_day(phased_events())
    assert day.diagnostics["held_events"] == 3
    # the held submissions made it into the book before the 09:30 order;
    # orders 1 and 3 still rest before their cancels at seq 5 and 6
    day = replay_day(phased_events()[:4])
    assert day.lifecycles[3].klass is AC.INSIDE_SPREAD  # saw bid 1000 / ask 1010
    assert not day.lifecycles[1].in_scope


def test_cool_cancel_excluded_from_profiles():
    day = replay_day(phased_events())
    cool = [o for o in day.observations if o.phase is SessionPhase.COOL]
    assert len(cool) == 1
    assert not cool[0].in_profile and not cool[0].in_ratio
    assert cool[0].record.cancelled_size == 40
    assert day.diagnostics["cancels_outside_continuous"] == 1


def test_continuous_cancel_of_call_order_counts_for_profiles_only():
    day = replay_day(phased_events())
    obs = next(o for o in day.observations if o.seq == 5)
    assert obs.in_profile and not obs.in_ratio
    assert day.diagnostics["cancels_of_precontinuous_orders"] == 1


def test_ratios_only_count_continuous_submissions():
    day = replay_day(phased_events())
    profile = InstrumentProfile("P")
    profile.add_day(day)
    rr = ratio_report(profile.buy)
    assert rr.orders == 1  # only order 3
    assert rr.cancelled_orders == 1
    assert ratio_report(profile.sell).orders == 0
    assert ratio_report(profile.sell).ratio is None


def test_all_held_stream_still_applies():
    events = phased_events()[:3]
    day = replay_day(events)
    assert day.book.index[1].remaining_size == 60
    assert len(day.lifecycles) == 2


def test_order_cancelled_in_parts_counts_once():
    base = datetime(2003, 6, 2, 10, 0, 0)
    events = [
        OrderEvent(1, base, "Q", 1, EventKind.LIMIT, B, 1000, 100),
        OrderEvent(2, base, "Q", 2, EventKind.LIMIT, B, 999, 100),
        OrderEvent(3, base, "Q", 1, EventKind.CANCEL, B, 0, 30),
        OrderEvent(4, base, "Q", 1, EventKind.CANCEL, B, 0, 30),
        OrderEvent(5, base, "Q", 1, EventKind.CANCEL, B, 0, 0),
    ]
    day = replay_day(events)
    rr = ratio_report(day.buy)
    assert (rr.orders, rr.cancelled_orders, rr.cancel_events) == (2, 1, 3)
    assert rr.by_class[AC.INSIDE_BOOK].cancelled == 1  # both books were empty
    assert sum(day.buy.rel_level_counts.values()) == len(day.buy.norm_levels) == 3
    assert set(day.lifecycles) == {2}


def test_wrong_side_cancel_counted_not_applied():
    base = datetime(2003, 6, 2, 10, 0, 0)
    events = [
        OrderEvent(1, base, "W", 1, EventKind.LIMIT, B, 1000, 100),
        OrderEvent(2, base, "W", 1, EventKind.CANCEL, S, 999, 0),
    ]
    day = replay_day(events)
    assert day.diagnostics["cancel_side_mismatch"] == 1
    assert not day.observations and day.buy.cancel_events == 0
    assert day.book.index[1].remaining_size == 100


def test_replay_day_reads_any_iterable_once(fixture_events):
    from_list = replay_day(fixture_events)
    from_iterator = replay_day(iter(fixture_events))
    assert from_iterator.observations == from_list.observations
    assert from_iterator.instrument == from_list.instrument == "000777"
    assert from_iterator.buy == from_list.buy and from_iterator.sell == from_list.sell


def test_dangling_cancel_counted_not_raised():
    base = datetime(2003, 6, 2, 10, 0, 0)
    events = [OrderEvent(1, base, "D", 99, EventKind.CANCEL, B, 0, 0)]
    day = replay_day(events)
    assert day.diagnostics["dangling_cancels"] == 1
    assert not day.observations


# -- empirical densities --------------------------------------------------------------


def test_pdf_single_bin_mass():
    pdf = accumulate_pdf([0.015] * 100, BinSpec("uniform", 50))
    assert pdf.density[0] == pytest.approx(50.0)
    assert np.all(pdf.density[1:] == 0.0)
    assert pdf.count == 100


def test_pdf_normalization_invariant():
    rng = np.random.default_rng(1)
    for spec, draw in [
        (BinSpec("uniform", 50), 1.0 - rng.random(1000)),
        (BinSpec("uniform", 7), 1.0 - rng.random(3)),
        (BinSpec("log_uniform", 60), rng.lognormal(1.0, 1.0, 2000)),
        (BinSpec("log_uniform", 13), rng.lognormal(0.0, 2.0, 500)),
    ]:
        pdf = accumulate_pdf(draw, spec)
        assert abs(pdf.integral() - 1.0) <= 1e-9


def test_pdf_uniform_samples_multinomial_band():
    rng = np.random.default_rng(7)
    samples = 1.0 - rng.random(100_000)
    pdf = accumulate_pdf(samples, BinSpec("uniform", 50))
    sigma = math.sqrt(0.02 * 0.98 / 100_000) / 0.02
    assert np.all(np.abs(pdf.density - 1.0) < 5 * sigma)


def test_pdf_boundary_membership():
    pdf = accumulate_pdf([1.0, 0.5, 1.0], BinSpec("uniform", 50))
    assert pdf.density[-1] > 0  # samples at 1.0 land in the last bin
    log_pdf = accumulate_pdf([1.0, 2.0, 8.0], BinSpec("log_uniform", 10))
    assert log_pdf.density[0] > 0 and log_pdf.density[-1] > 0


def test_pdf_domain_errors():
    with pytest.raises(EmptySample):
        accumulate_pdf([], BinSpec("uniform", 50))
    with pytest.raises(SampleOutsideDomain):
        accumulate_pdf([0.0, 0.5], BinSpec("uniform", 50))
    with pytest.raises(SampleOutsideDomain):
        accumulate_pdf([0.5, 1.2], BinSpec("uniform", 50))
    with pytest.raises(SampleOutsideDomain):
        accumulate_pdf([-1.0, 2.0], BinSpec("log_uniform", 10))
    with pytest.raises(SampleOutsideDomain):
        accumulate_pdf([0.5, 2.0], BinSpec("log_uniform", 10, lo=1.0, hi=3.0))
    with pytest.raises(PdfError):
        accumulate_pdf([2.0, 2.0], BinSpec("log_uniform", 10))
    with pytest.raises(ValueError):
        BinSpec("triangular", 10)


def test_pdf_centers_conventions():
    uni = accumulate_pdf([0.2, 0.7], BinSpec("uniform", 4))
    assert np.allclose(uni.centers(), [0.125, 0.375, 0.625, 0.875])
    logp = accumulate_pdf([1.0, 100.0], BinSpec("log_uniform", 2))
    assert np.allclose(logp.centers(), [10.0 ** 0.5, 10.0 ** 1.5])


# -- pooling ---------------------------------------------------------------------------


def test_ensemble_pools_by_raw_sample_count():
    base = datetime(2003, 6, 2, 10, 0, 0)

    def one_instrument(code, n_orders, n_cancels, seq0):
        events = [
            OrderEvent(seq0 + i, base + timedelta(seconds=i), code, i + 1,
                       EventKind.LIMIT, B, 1000 - i, 10)
            for i in range(n_orders)
        ]
        events += [
            OrderEvent(seq0 + n_orders + j, base + timedelta(seconds=60 + j), code, j + 1,
                       EventKind.CANCEL, B, 0, 0)
            for j in range(n_cancels)
        ]
        return events

    run = profile_events(one_instrument("AAA", 8, 2, 1) + one_instrument("BBB", 4, 3, 100))
    pooled = run.ensemble()
    assert pooled.buy.orders_total == 12
    assert pooled.buy.cancelled_orders == 5
    # raw samples concatenated, not reweighted
    assert sum(pooled.buy.rel_level_counts.values()) == len(pooled.buy.norm_levels) == 5
    assert run.per_instrument["AAA"].buy.cancelled_orders == 2
    assert run.per_instrument["BBB"].buy.cancelled_orders == 3


def test_merge_is_order_independent():
    events = generate_stream(GenConfig(seed=13, n_events=2000, initial_levels=10, initial_queue=3))
    run = profile_events(events)
    profile = run.per_instrument["SYN001"]
    a = InstrumentProfile("pool")
    a.merge(profile)
    a.merge(profile)
    assert a.buy.orders_total == 2 * profile.buy.orders_total
    assert a.buy.cancel_events == 2 * profile.buy.cancel_events


# -- paused cyclic collector ------------------------------------------------------


SMALL_GEN = GenConfig(seed=1, n_events=400, initial_levels=5, initial_queue=2)


@pytest.fixture
def collector_state():
    """Set the collector on or off for one test, restoring the session's state."""
    was_enabled = gc.isenabled()

    def set_state(enabled):
        (gc.enable if enabled else gc.disable)()

    yield set_state
    set_state(was_enabled)


@pytest.mark.parametrize("enabled", [True, False])
def test_replay_loops_restore_collector_state(fixture_events, collector_state, enabled):
    collector_state(enabled)
    replay_day(fixture_events)
    assert gc.isenabled() is enabled
    generate_stream(SMALL_GEN)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_replay_loops_restore_collector_state_when_book_raises(
    fixture_events, collector_state, monkeypatch, enabled
):
    seen = []

    def boom(self, event):
        seen.append(gc.isenabled())
        raise CrossedBookInvariantViolation("synthetic failure")

    monkeypatch.setattr(LimitOrderBook, "apply", boom)
    collector_state(enabled)
    with pytest.raises(CrossedBookInvariantViolation):
        replay_day(fixture_events)
    assert gc.isenabled() is enabled
    with pytest.raises(CrossedBookInvariantViolation):
        generate_stream(SMALL_GEN)
    assert gc.isenabled() is enabled
    assert seen == [False, False]  # the book ran with the collector paused


def test_fixture_replay_leaves_no_cyclic_garbage(fixture_events):
    # The premise of pausing the collector: a replay allocates no cycles, so
    # a collection right after it, with its result dropped, finds nothing.
    gc.collect()
    day = replay_day(fixture_events)
    del day
    assert gc.collect() == 0
