import gc
import math
import random
from collections import Counter
from datetime import date, datetime, time, timedelta, timezone
from functools import partial
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURE_CANCEL_RECORDS,
    FIXTURE_CLASSES,
    FIXTURE_TRADES,
)
from lobcancel.lob import (
    CancelExceedsRemaining,
    CancelSideMismatch,
    CrossedBookInvariantViolation,
    DanglingCancel,
    DuplicateOrderId,
    LimitOrderBook,
    norm_level,
)
from lobcancel.orderflow import (
    _PHASE_BOUNDS,
    CONTINUOUS_PHASES,
    EventKind,
    OrderEvent,
    SessionPhase,
    Side,
    phase_of,
)
from lobcancel.profiles import (
    AggressivenessClass,
    BinSpec,
    DayReplay,
    EmptySample,
    InstrumentProfile,
    OrderLifecycle,
    PdfError,
    SampleOutsideDomain,
    SideAccumulator,
    accumulate_pdf,
    classify_submission,
    profile_events,
    ratio_report,
    replay_day,
)
from lobcancel.synth import GenConfig, generate_stream
from test_lob import _cancel, _submission

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
    # Every fixture event is in a continuous session, so replay_day applies
    # them to its book in this same order.
    book = LimitOrderBook()
    got = [(t.maker_id, t.taker_id, t.price_ticks, t.size)
           for ev in fixture_events for t in book.apply(ev).trades]
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
        assert rr["orders"] == 10
        assert rr["cancelled_orders"] == 4
        assert rr["cancel_events"] == 4
        assert rr["ratio"] == pytest.approx(0.4)
        for klass in (AC.PARTIALLY_FILLED, AC.INSIDE_SPREAD, AC.AT_BEST, AC.INSIDE_BOOK):
            assert rr["class_ratios"][klass.value]["orders"] == 2
            assert rr["class_ratios"][klass.value]["cancelled"] == 1
            assert rr["class_ratios"][klass.value]["ratio"] == pytest.approx(0.5)
        assert acc.orders_by_class[AC.FULLY_FILLED] == rr["fully_filled_orders"] == 2


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
    assert ratio_report(profile.buy)["ratio"] == pytest.approx(0.2)


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


def _placed_and_cancelled(stamps):
    """A buy limit and its full cancel at each timestamp, in order."""
    events = []
    for i, ts in enumerate(stamps):
        events.append(OrderEvent(2 * i + 1, ts, "PH", i + 1, EventKind.LIMIT, B, 1000 - i, 100))
        events.append(OrderEvent(2 * i + 2, ts, "PH", i + 1, EventKind.CANCEL, B, 0, 0))
    return events


@pytest.mark.parametrize("tz", [None, timezone(timedelta(hours=8))], ids=["naive", "offset"])
def test_replay_phases_match_phase_of_around_every_bound(tz):
    ms = timedelta(milliseconds=1)
    stamps = [datetime.combine(date(2003, 6, 2), bound, tzinfo=tz) + step
              for bound in _PHASE_BOUNDS for step in (-ms, 0 * ms, ms)]
    call_or_cool = [ts for ts in stamps if phase_of(ts) in (SessionPhase.OPENING_CALL,
                                                            SessionPhase.COOL)]
    assert stamps[0] < call_or_cool[0] and len(call_or_cool) == 6
    streams = {
        # The first event is closed, so no event counts as held.
        "direct": (stamps, 0),
        # Opening-call and cool events before the day's first 09:30 event.
        "released": (stamps[1:], 12),
        # Only opening-call and cool events: every one counts as held.
        "finished": (call_or_cool, 12),
    }
    for name, (day_stamps, held) in streams.items():
        day = replay_day(_placed_and_cancelled(day_stamps))
        assert day.diagnostics["held_events"] == held, name
        assert [o.timestamp for o in day.observations] == day_stamps, name
        assert [o.phase for o in day.observations] == list(map(phase_of, day_stamps)), name
        # The order's phase decides its scope: both events of a pair share a stamp.
        assert [o.in_ratio for o in day.observations] == [
            phase_of(ts) in CONTINUOUS_PHASES for ts in day_stamps], name


def test_call_and_cool_events_held_then_flushed():
    day = replay_day(phased_events())
    assert day.diagnostics["held_events"] == 3
    # the call-phase submissions are in the book when the 09:30 order arrives;
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
    assert rr["orders"] == 1  # only order 3
    assert rr["cancelled_orders"] == 1
    assert ratio_report(profile.sell)["orders"] == 0
    assert ratio_report(profile.sell)["ratio"] is None


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
    assert (rr["orders"], rr["cancelled_orders"], rr["cancel_events"]) == (2, 1, 3)
    assert rr["class_ratios"][AC.INSIDE_BOOK.value]["cancelled"] == 1  # both books were empty
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


def test_cancel_above_the_remaining_size_counted_not_applied():
    base = datetime(2003, 6, 2, 10, 0, 0)
    events = [
        OrderEvent(1, base, "X", 1, EventKind.LIMIT, B, 1000, 100),
        OrderEvent(2, base, "X", 1, EventKind.CANCEL, B, 1000, 101),
    ]
    replay = DayReplay()
    for ev in events:
        replay.feed(ev)
    day = replay.finish()
    assert day.diagnostics == {"cancel_exceeds_remaining": 1}
    assert not day.observations and day.buy.cancel_events == 0
    assert day.book.index[1].remaining_size == 100


def test_cancel_price_mismatch_counted_and_applied(fixture_events):
    assert "cancel_price_mismatch" not in replay_day(fixture_events).diagnostics
    last = fixture_events[-1]

    def cancel(offset, order_id, side, price):
        return last._replace(seq=last.seq + offset,
                             timestamp=last.timestamp + timedelta(seconds=offset),
                             order_id=order_id, side=side, price_ticks=price)

    # 107 rests as a sell at 1021, 108 as a buy at 979; price 0 names no price
    day = replay_day(fixture_events + [cancel(1, 107, S, 1025), cancel(2, 108, B, 0)])
    assert day.diagnostics["cancel_price_mismatch"] == 1
    assert 107 not in day.book.index and 108 not in day.book.index
    assert len(day.observations) == len(FIXTURE_CANCEL_RECORDS) + 2


def test_replay_day_reads_any_iterable_once(fixture_events):
    from_list = replay_day(fixture_events)
    from_iterator = replay_day(iter(fixture_events))
    assert from_iterator.observations == from_list.observations
    assert from_iterator.instrument == from_list.instrument == "000777"
    assert from_iterator.buy == from_list.buy and from_iterator.sell == from_list.sell


def test_day_replay_hands_its_cancels_to_flush_in_chunks(fixture_events):
    chunks = []
    replay = DayReplay(lambda observations: chunks.append(list(observations)), chunk=3)
    for ev in fixture_events:
        replay.feed(ev)
    day = replay.finish()
    assert [len(c) for c in chunks] == [3, 3, 2] and day.observations == []
    whole = replay_day(fixture_events)
    assert [obs for c in chunks for obs in c] == whole.observations
    assert (day.buy, day.sell, day.diagnostics) == (whole.buy, whole.sell, whole.diagnostics)


def test_dangling_cancel_counted_not_raised():
    base = datetime(2003, 6, 2, 10, 0, 0)
    events = [OrderEvent(1, base, "D", 99, EventKind.CANCEL, B, 0, 0)]
    day = replay_day(events)
    assert day.diagnostics["dangling_cancels"] == 1
    assert not day.observations



_REJECTED_CANCELS = {DanglingCancel: "dangling_cancels",
                     CancelSideMismatch: "cancel_side_mismatch",
                     CancelExceedsRemaining: "cancel_exceeds_remaining"}


def _session_reference(events):
    """A day's diagnostics and per-side counts, by the session rules, event by event.

    Every event goes through ``LimitOrderBook.apply`` in stream order, in the
    phase of its own stamp. ``held_events`` counts the opening-call and cool
    events before the day's first event of any other phase.
    """
    book = LimitOrderBook()
    diagnostics = Counter()
    accs = {B: SideAccumulator(), S: SideAccumulator()}
    lives = {}  # resting order id -> [class, submitted in a continuous session, cancelled in scope]
    holding = True
    for ev in events:
        phase = phase_of(ev.timestamp)
        continuous = phase in CONTINUOUS_PHASES
        holding = holding and phase in (SessionPhase.OPENING_CALL, SessionPhase.COOL)
        diagnostics["held_events"] += holding
        if ev.kind is EventKind.CANCEL:
            order = book.index.get(ev.order_id)
            try:
                rec = book.apply(ev).cancellation
            except tuple(_REJECTED_CANCELS) as exc:
                diagnostics[_REJECTED_CANCELS[type(exc)]] += 1
                continue
            diagnostics["cancel_price_mismatch"] += ev.price_ticks not in (0, order.price_ticks)
            life, acc = lives[ev.order_id], accs[rec.side]
            if not continuous:
                diagnostics["cancels_outside_continuous"] += 1
                continue
            if not life[1]:
                diagnostics["cancels_of_precontinuous_orders"] += 1
            else:
                acc.cancel_events += 1
                if not life[2]:
                    acc.cancelled_by_class[life[0]] += 1
                    life[2] = True
            acc.rel_level_counts[rec.level_rank, rec.side_levels] += 1
            acc.queue_frac_counts[rec.queue_rank, rec.level_orders] += 1
            acc.norm_levels.append(
                norm_level(rec.level_rank, rec.side_levels, rec.level_orders, rec.side_orders))
        else:
            bid, ask = book.best_bid(), book.best_ask()
            try:
                outcome = book.apply(ev)
            except DuplicateOrderId:
                diagnostics["duplicate_order_ids"] += 1
                continue
            rested = outcome.rested is not None
            klass = classify_submission(ev.side, ev.price_ticks, bid, ask, bool(outcome.trades),
                                        rested)
            if continuous:
                accs[ev.side].orders_by_class[klass] += 1
            if rested:
                lives[ev.order_id] = [klass, continuous, False]
    return book, +diagnostics, accs, lives


def _stamps(lo: time, hi: time):
    """Stamps in [lo, hi) of one day: a phase, then a time in it, often at one of its ends.

    The continuous sessions are drawn three times as often as each other phase.
    """
    day = date(2003, 6, 2)
    cuts = [datetime.combine(day, t) for t in (lo, *_PHASE_BOUNDS, hi) if lo <= t <= hi]
    spans = list(zip(cuts, cuts[1:]))
    spans += [span for span in spans if phase_of(span[0]) in CONTINUOUS_PHASES] * 2
    return st.tuples(st.sampled_from(spans), st.floats(0, 1, exclude_max=True)).map(
        lambda span_at: span_at[0][0] + (span_at[0][1] - span_at[0][0]) * span_at[1])


# test_lob's cancels name no price; these name one, matching or not.
_priced_cancel = st.tuples(_cancel, st.integers(995, 1005)).map(
    lambda cancel_price: (*cancel_price[0][:2], cancel_price[1], *cancel_price[0][3:]))
_row = st.one_of(_submission, _submission, _cancel, _priced_cancel)


@settings(derandomize=True, max_examples=100, deadline=None,
          phases=[Phase.explicit, Phase.generate, Phase.shrink])
@given(st.lists(st.tuples(_row, _stamps(time(9, 15), time(9, 30))), max_size=20),
       st.lists(st.tuples(_row, _stamps(time(9, 0), time(15, 30))), min_size=20, max_size=60),
       st.booleans())
def test_day_replay_matches_the_session_rules_event_by_event(opening, rest, in_time_order):
    # The day opens with up to 20 opening-call and cool events, in time
    # order, and goes on with events stamped anywhere in 09:00-15:30, in time
    # order or not.
    by_time = partial(sorted, key=itemgetter(1))
    pairs = [*by_time(opening), *(by_time(rest) if in_time_order else rest)]
    events = [OrderEvent(seq, ts, "ORC", oid, EventKind(kind), Side(side), price, size)
              for seq, ((kind, side, price, size, oid), ts) in enumerate(pairs, start=1)]
    day = replay_day(events)
    book, diagnostics, accs, lives = _session_reference(events)
    assert day.diagnostics == diagnostics
    for got, want in ((day.buy, accs[B]), (day.sell, accs[S])):
        assert got == want
    assert day.book.to_state_dict() == book.to_state_dict()
    assert day.lifecycles == {oid: OrderLifecycle(*lives[oid]) for oid in book.index}


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

    # Both streams open with a submission, and the replay and the generator
    # call the book's submission path directly.
    monkeypatch.setattr(LimitOrderBook, "submit", boom)
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
