import random
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from lobcancel.lob import (
    CancelExceedsRemaining,
    CancelSideMismatch,
    CancellationRecord,
    DanglingCancel,
    DuplicateOrderId,
    LimitOrderBook,
    UnknownLevel,
    UnknownOrder,
)
from lobcancel.orderflow import EventKind, OrderEvent, Side
from lobcancel.reportio import render_json

BASE_TS = datetime(2003, 6, 2, 9, 31, 0)


def make_event(seq, kind, side, price, size, order_id, instrument="TEST"):
    return OrderEvent(
        seq, BASE_TS + timedelta(seconds=seq), instrument, order_id,
        EventKind(kind), Side(side), price, size,
    )


def apply_rows(book, rows, start_seq=1):
    outcomes = []
    for i, (kind, side, price, size, oid) in enumerate(rows):
        outcomes.append(book.apply(make_event(start_seq + i, kind, side, price, size, oid)))
    return outcomes


class BruteBook:
    """Reference matcher that rescans every resting order at every event.

    After each successful cancel, ``last_cancel`` holds the cancelled order's
    coordinates, counted from scratch over the live orders before removal, in
    the layout of ``cancel_coords``, and ``cancels`` counts the successful
    cancels so far. A submission whose id is still resting is refused, and so
    is a cancel whose side is not the side of the order it names.
    """

    def __init__(self):
        self.live = []  # {id, side, price, rem, arrival}
        self.last_cancel = None
        self.cancels = 0

    def apply(self, ev):
        trades = []
        self.last_cancel = None
        if ev.kind is not EventKind.CANCEL and any(o["id"] == ev.order_id for o in self.live):
            return trades, "duplicate"
        if ev.kind is EventKind.CANCEL:
            found = [o for o in self.live if o["id"] == ev.order_id]
            if not found:
                return trades, "dangling"
            order = found[0]
            if order["side"] is not ev.side:
                return trades, "side_mismatch"
            qty = ev.size if ev.size > 0 else order["rem"]
            if qty > order["rem"]:
                return trades, "exceeds"
            side = order["side"]
            same_side = [o for o in self.live if o["side"] is side]
            prices = sorted({o["price"] for o in same_side}, reverse=side is Side.BUY)
            queue = sorted(
                (o for o in same_side if o["price"] == order["price"]), key=lambda o: o["arrival"]
            )
            self.last_cancel = (
                side,
                prices.index(order["price"]) + 1,
                len(prices),
                len(queue),
                len(same_side),
                queue.index(order) + 1,
                qty,
            )
            self.cancels += 1
            order["rem"] -= qty
            if order["rem"] == 0:
                self.live.remove(order)
            return trades, "ok"
        rem = ev.size
        is_buy = ev.side is Side.BUY
        while rem > 0:
            if is_buy:
                cands = [o for o in self.live if o["side"] is Side.SELL and o["price"] <= ev.price_ticks]
            else:
                cands = [o for o in self.live if o["side"] is Side.BUY and o["price"] >= ev.price_ticks]
            if not cands:
                break
            best = min(o["price"] for o in cands) if is_buy else max(o["price"] for o in cands)
            maker = min((o for o in cands if o["price"] == best), key=lambda o: o["arrival"])
            take = min(rem, maker["rem"])
            maker["rem"] -= take
            rem -= take
            trades.append((maker["id"], ev.order_id, best, take))
            if maker["rem"] == 0:
                self.live.remove(maker)
        if rem > 0:
            self.live.append(
                {"id": ev.order_id, "side": ev.side, "price": ev.price_ticks, "rem": rem, "arrival": ev.seq}
            )
        return trades, "ok"

    def state(self):
        out = {}
        for side, key, rev in ((Side.BUY, "buy", True), (Side.SELL, "sell", False)):
            orders = [o for o in self.live if o["side"] is side]
            prices = sorted({o["price"] for o in orders}, reverse=rev)
            out[key] = [
                {
                    "price_ticks": p,
                    "queue": [
                        {"order_id": o["id"], "remaining_size": o["rem"]}
                        for o in sorted(
                            (q for q in orders if q["price"] == p), key=lambda q: q["arrival"]
                        )
                    ],
                }
                for p in prices
            ]
        return out


def cancel_coords(record):
    """(side, level_rank, side_levels, level_orders, side_orders, queue_rank,
    cancelled_size) of a CancellationRecord, comparable with BruteBook.last_cancel."""
    return (
        record.side,
        record.level_rank,
        record.side_levels,
        record.level_orders,
        record.side_orders,
        record.queue_rank,
        record.cancelled_size,
    )


def random_stream(rng, n_events, instrument="RND"):
    """Random event soup including dangling, oversized and wrong-side cancels."""
    events = []
    submitted = []  # (order_id, side)
    mid = 1000
    for seq in range(1, n_events + 1):
        mid += rng.choice((-1, 0, 0, 1))
        roll = rng.random()
        if roll < 0.55 or not submitted:
            oid = 10_000 + seq
            kind, side = rng.choice("LM"), rng.choice("BS")
            submitted.append((oid, side))
            events.append(
                make_event(seq, kind, side,
                           mid + rng.randrange(-25, 26), rng.randrange(1, 400), oid, instrument)
            )
        else:
            oid, side = rng.choice(submitted)  # may be long gone: dangling path
            size = 0 if rng.random() < 0.7 else rng.randrange(1, 500)
            if rng.random() < 0.1:  # names the order with the other side
                side = "S" if side == "B" else "B"
            events.append(make_event(seq, "C", side, 0, size, oid, instrument))
    return events


def replay_both(events):
    """Apply the same events to the engine and the reference; compare per event.

    Trades are compared on every submission, cancellation coordinates on
    every successful cancel, and the resting state at the end.
    """
    book = LimitOrderBook()
    brute = BruteBook()
    engine_trades = []
    for ev in events:
        want_trades, status = brute.apply(ev)
        if status == "dangling":
            with pytest.raises(DanglingCancel):
                book.apply(ev)
            continue
        if status == "exceeds":
            with pytest.raises(CancelExceedsRemaining):
                book.apply(ev)
            continue
        if status == "side_mismatch":
            with pytest.raises(CancelSideMismatch):
                book.apply(ev)
            continue
        if status == "duplicate":
            with pytest.raises(DuplicateOrderId):
                book.apply(ev)
            continue
        outcome = book.apply(ev)
        got = [(t.maker_id, t.taker_id, t.price_ticks, t.size) for t in outcome.trades]
        assert got == want_trades, f"trade mismatch at seq {ev.seq}"
        if ev.kind is EventKind.CANCEL:
            assert cancel_coords(outcome.cancellation) == brute.last_cancel, (
                f"cancellation coordinates mismatch at seq {ev.seq}"
            )
            assert outcome.cancellation.cancel_index == brute.cancels
        else:
            assert outcome.cancellation is None
        engine_trades.extend(got)
    assert book.to_state_dict() == brute.state()
    return book, engine_trades


# -- basic matching ------------------------------------------------------------


def test_limit_rests_on_empty_book():
    book = LimitOrderBook()
    (outcome,) = apply_rows(book, [("L", "B", 1000, 100, 1)])
    assert outcome.trades == []
    assert outcome.rested == 1
    assert book.to_state_dict() == {
        "buy": [{"price_ticks": 1000, "queue": [{"order_id": 1, "remaining_size": 100}]}],
        "sell": [],
    }


def test_marketable_partial_fill_single_level():
    book = LimitOrderBook()
    outcomes = apply_rows(book, [("L", "S", 1001, 200, 7), ("M", "B", 1001, 150, 8)])
    trade = outcomes[1].trades[0]
    assert (trade.maker_id, trade.taker_id, trade.price_ticks, trade.size) == (7, 8, 1001, 150)
    assert outcomes[1].rested is None
    assert book.index[7].remaining_size == 50


def test_trade_executes_at_maker_price():
    book = LimitOrderBook()
    outcomes = apply_rows(book, [("L", "S", 1001, 100, 1), ("L", "B", 1010, 100, 2)])
    assert outcomes[1].trades[0].price_ticks == 1001


def test_marketable_remainder_rests():
    book = LimitOrderBook()
    outcomes = apply_rows(book, [("L", "S", 1001, 60, 1), ("M", "B", 1001, 100, 2)])
    assert outcomes[1].rested == 2
    assert book.best_bid() == 1001
    assert book.index[2].remaining_size == 40


def test_matching_walks_levels_fifo():
    book = LimitOrderBook()
    outcomes = apply_rows(
        book,
        [
            ("L", "S", 1001, 50, 1),
            ("L", "S", 1001, 50, 2),
            ("L", "S", 1002, 50, 3),
            ("M", "B", 1002, 120, 4),
        ],
    )
    got = [(t.maker_id, t.size, t.price_ticks) for t in outcomes[3].trades]
    assert got == [(1, 50, 1001), (2, 50, 1001), (3, 20, 1002)]


def test_duplicate_resting_id_rejected():
    book = LimitOrderBook()
    apply_rows(book, [("L", "B", 1000, 100, 1)])
    with pytest.raises(DuplicateOrderId):
        apply_rows(book, [("L", "B", 999, 100, 1)], start_seq=2)


# -- cancels ---------------------------------------------------------------------


def test_cancel_full_and_dangling_afterwards():
    book = LimitOrderBook()
    outcomes = apply_rows(book, [("L", "B", 1000, 100, 1), ("C", "B", 0, 0, 1)])
    rec = outcomes[1].cancellation
    assert rec.cancelled_size == 100
    assert book.to_state_dict() == {"buy": [], "sell": []}
    with pytest.raises(DanglingCancel):
        apply_rows(book, [("C", "B", 0, 0, 1)], start_seq=3)


def test_partial_cancel_keeps_time_priority():
    book = LimitOrderBook()
    apply_rows(
        book,
        [("L", "S", 1001, 100, 1), ("L", "S", 1001, 100, 2), ("C", "S", 0, 40, 1)],
    )
    assert book.index[1].remaining_size == 60
    assert book.queue_position(1) == 1  # still in front despite the reduction
    outcome = book.apply(make_event(4, "M", "B", 1001, 70, 9))
    assert [(t.maker_id, t.size) for t in outcome.trades] == [(1, 60), (2, 10)]


def test_cancel_exceeding_remaining_rejected():
    book = LimitOrderBook()
    apply_rows(book, [("L", "B", 1000, 100, 1)])
    with pytest.raises(CancelExceedsRemaining):
        apply_rows(book, [("C", "B", 0, 150, 1)], start_seq=2)
    assert book.index[1].remaining_size == 100  # book unchanged


def test_cancel_naming_the_other_side_rejected():
    book = LimitOrderBook()
    apply_rows(book, [("L", "B", 1000, 100, 1), ("L", "S", 1010, 50, 2)])
    before = book.to_state_dict()
    with pytest.raises(CancelSideMismatch):
        apply_rows(book, [("C", "S", 999, 0, 1)], start_seq=3)
    with pytest.raises(CancelSideMismatch):
        apply_rows(book, [("C", "B", 0, 20, 2)], start_seq=4)
    assert book.to_state_dict() == before  # book unchanged
    assert book.cancel_count == 0
    book.check_invariants()


def test_cancel_record_positions_measured_before_removal():
    book = LimitOrderBook()
    outcomes = apply_rows(
        book,
        [
            ("L", "B", 1005, 10, 1),
            ("L", "B", 1003, 10, 2),
            ("L", "B", 1003, 10, 3),
            ("L", "B", 1000, 10, 4),
            ("C", "B", 0, 0, 3),
        ],
    )
    rec = outcomes[4].cancellation
    assert (rec.level_rank, rec.side_levels) == (2, 3)
    assert (rec.queue_rank, rec.level_orders) == (2, 2)  # includes the cancelled order
    assert rec.side_orders == 4
    assert rec.queue_frac == 1.0  # last in queue maps to 1
    assert rec.cancel_index == 1


def test_cancellation_record_validates_on_construction():
    with pytest.raises(ValueError):
        CancellationRecord(
            cancel_index=1, side=Side.BUY, level_rank=3, side_levels=2, level_orders=1,
            side_orders=1, queue_rank=1, cancelled_size=10,
        )


# -- position queries ---------------------------------------------------------


def test_level_rank_examples():
    book = LimitOrderBook()
    apply_rows(
        book,
        [
            ("L", "B", 1005, 10, 1),
            ("L", "B", 1003, 10, 2),
            ("L", "B", 1000, 10, 3),
            ("L", "S", 1006, 10, 4),
            ("L", "S", 1008, 10, 5),
        ],
    )
    assert book.level_rank(Side.BUY, 1003) == 2
    assert book.level_rank(Side.SELL, 1006) == 1
    with pytest.raises(UnknownLevel):
        book.level_rank(Side.BUY, 1001)


def test_queue_position_second_at_second_level():
    # An order sitting second in the queue of the second-best buy level.
    book = LimitOrderBook()
    apply_rows(
        book,
        [
            ("L", "B", 1005, 10, 1),
            ("L", "B", 1003, 10, 2),
            ("L", "B", 1003, 10, 3),  # the observed order
        ],
    )
    assert book.level_rank(Side.BUY, 1003) == 2
    assert book.queue_position(3) == 2
    assert book.queue_position(1) == 1
    with pytest.raises(UnknownOrder):
        book.queue_position(404)


def test_snapshot_depth():
    book = LimitOrderBook()
    assert book.snapshot_depth(Side.SELL) == (0, 0, [])
    apply_rows(
        book,
        [
            ("L", "S", 1001, 10, 1),
            ("L", "S", 1001, 10, 2),
            ("L", "S", 1001, 10, 3),
            ("L", "S", 1002, 10, 4),
            ("L", "S", 1003, 10, 5),
            ("L", "S", 1003, 10, 6),
        ],
    )
    assert book.snapshot_depth(Side.SELL) == (3, 6, [3, 1, 2])


def test_position_queries_match_linear_scan_oracle():
    rng = random.Random(314)
    for _ in range(30):
        book = LimitOrderBook()
        placed = []
        seq = 0
        for _ in range(rng.randrange(5, 60)):
            seq += 1
            side = rng.choice("BS")
            # keep the two ladders apart so nothing crosses
            price = rng.randrange(900, 1000) if side == "B" else rng.randrange(1001, 1100)
            book.apply(make_event(seq, "L", side, price, rng.randrange(1, 50), seq))
            placed.append((seq, Side(side), price))
        for oid, side, price in placed:
            ladder = [o for o in placed if o[1] is side]
            prices = sorted({p for (_, _, p) in ladder}, reverse=side is Side.BUY)
            assert book.level_rank(side, price) == prices.index(price) + 1
            same_level = [o for (o, s, p) in ladder if s is side and p == price]
            assert book.queue_position(oid) == sorted(same_level).index(oid) + 1
        for side in Side:
            ladder = [o for o in placed if o[1] is side]
            prices = sorted({p for (_, _, p) in ladder}, reverse=side is Side.BUY)
            depth, total, per_level = book.snapshot_depth(side)
            assert depth == len(prices)
            assert total == len(ladder)
            assert per_level == [sum(1 for (_, s, p) in ladder if p == q) for q in prices]


# -- invariants -----------------------------------------------------------------


def test_oracle_equivalence_random_streams():
    rng = random.Random(987)
    for _ in range(60):
        events = random_stream(rng, rng.randrange(20, 200))
        replay_both(events)


# Order ids come from a small pool, so submissions reuse ids that are still
# resting (refused as duplicates) or already gone (accepted), and cancels hit
# resting, filled, cancelled and never-seen ids. Sizes make cancels partial,
# full (size 0) or larger than what remains.
_submission = st.tuples(
    st.sampled_from("LM"), st.sampled_from("BS"), st.integers(995, 1005),
    st.integers(1, 40), st.integers(1, 12),
)
_cancel = st.tuples(
    st.just("C"), st.sampled_from("BS"), st.just(0),
    st.one_of(st.just(0), st.integers(1, 50)), st.integers(0, 13),
)


# No explain phase: on a failure it re-runs the shrunk stream for minutes.
@settings(derandomize=True, max_examples=150, deadline=None,
          phases=[Phase.explicit, Phase.generate, Phase.shrink])
@given(st.lists(st.one_of(_submission, _submission, _cancel), min_size=20, max_size=80))
def test_property_streams_match_brute_book(rows):
    events = [make_event(seq, *row) for seq, row in enumerate(rows, start=1)]
    replay_both(events)


def test_conservation_after_every_event():
    rng = random.Random(555)
    events = random_stream(rng, 400)
    book = LimitOrderBook()
    rested = {Side.BUY: 0, Side.SELL: 0}
    filled = {Side.BUY: 0, Side.SELL: 0}
    cancelled = {Side.BUY: 0, Side.SELL: 0}
    side_of = {}
    for ev in events:
        try:
            outcome = book.apply(ev)
        except (DanglingCancel, CancelExceedsRemaining, CancelSideMismatch):
            continue
        if ev.kind is EventKind.CANCEL:
            cancelled[side_of[ev.order_id]] += outcome.cancellation.cancelled_size
        else:
            side_of[ev.order_id] = ev.side
            for t in outcome.trades:
                filled[side_of[t.maker_id]] += t.size
            if outcome.rested is not None:
                rested[ev.side] += ev.size - sum(t.size for t in outcome.trades)
        for side, attr in ((Side.BUY, book.buy), (Side.SELL, book.sell)):
            total = sum(
                o.remaining_size for lvl in attr.levels.values() for o in lvl.queue
            )
            assert total == rested[side] - filled[side] - cancelled[side]
        book.check_invariants()


def test_no_crossed_book_at_rest_random_streams():
    rng = random.Random(31337)
    for _ in range(20):
        events = random_stream(rng, 150)
        book = LimitOrderBook()
        for ev in events:
            try:
                book.apply(ev)
            except (DanglingCancel, CancelExceedsRemaining, CancelSideMismatch):
                continue
            bid, ask = book.best_bid(), book.best_ask()
            if bid is not None and ask is not None:
                assert bid < ask


def test_determinism_same_events_same_book():
    rng = random.Random(8)
    events = random_stream(rng, 300)

    def run():
        book = LimitOrderBook()
        trades = []
        for ev in events:
            try:
                trades.extend(book.apply(ev).trades)
            except (DanglingCancel, CancelExceedsRemaining, CancelSideMismatch):
                trades.append(("rejected", ev.seq))
        return trades, book.to_state_dict()

    assert run() == run()


def test_golden_book_dump(fixture_events):
    book = LimitOrderBook()
    for ev in fixture_events:
        book.apply(ev)
    golden = (Path(__file__).parent / "data" / "fixture_book_golden.json").read_text(
        encoding="utf-8"
    )
    assert render_json(book.to_state_dict()) == golden
