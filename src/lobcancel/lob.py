"""Price-time-priority limit-order book with cancellation position capture.

Two ladders of price levels (buy descending, sell ascending), each level a
FIFO queue of resting orders. Each ladder keeps its occupied prices in one
sorted list, so the best price is its first entry and a level's rank is one
bisection away. Incoming submissions match against the opposite
ladder best price first, FIFO within a level, trading at the maker's price;
any remainder rests. Cancels remove quantity from a referenced resting order
and capture the order's book coordinates *before* removal.

A book instance covers one instrument-day and is single-threaded; books for
different instruments can be driven in parallel.
"""
from __future__ import annotations

import gc
from bisect import bisect_left, insort
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

from .orderflow import EventKind, OrderEvent, Side

# Reading a member off its Enum class (Side.BUY) runs EnumType's Python-level
# attribute hook on Python 3.11, ~0.15 us a lookup; the per-event paths
# compare against these module names instead.
_BUY = Side.BUY
_CANCEL = EventKind.CANCEL


class LobError(Exception):
    """Base class for book application errors."""


class DanglingCancel(LobError):
    """Cancel referenced an order id that is not resting."""

    def __init__(self, order_id: int):
        super().__init__(f"cancel references unknown or inactive order {order_id}")
        self.order_id = order_id


class CancelExceedsRemaining(LobError):
    pass


class CancelSideMismatch(LobError):
    """Cancel named a resting order of the other side."""


class DuplicateOrderId(LobError):
    pass


class UnknownLevel(LobError):
    pass


class UnknownOrder(LobError):
    pass


class CrossedBookInvariantViolation(LobError):
    pass


@dataclass(slots=True, eq=False)
class RestingOrder:
    order_id: int
    side: Side
    price_ticks: int
    remaining_size: int
    arrival_seq: int


@dataclass(slots=True, eq=False)
class PriceLevel:
    price_ticks: int
    queue: deque[RestingOrder]


class Trade(NamedTuple):
    maker_id: int
    taker_id: int
    price_ticks: int
    size: int


class _CancellationFields(NamedTuple):
    cancel_index: int        # per-book counter, +1 for each cancellation
    side: Side
    level_rank: int          # rank of the order's price level under priority
    side_levels: int         # occupied price levels on this side
    level_orders: int        # orders queued at this level, cancelled one included
    side_orders: int         # total resting orders on this side
    queue_rank: int          # FIFO position within the level
    cancelled_size: int


class CancellationRecord(_CancellationFields):
    """Book coordinates of one cancellation, measured at the instant it hits.

    ``level_rank``/``queue_rank`` are 1-based (1 = best price level, 1 = front
    of the queue) and include the cancelled order itself, so the fractional
    coordinates span (0, 1] and the last order in a queue maps to 1. Besides
    the side, the record holds integers only; the three ratio coordinates are
    properties derived from them. An immutable tuple, checked on construction.
    """

    __slots__ = ()

    def __new__(
        cls,
        cancel_index: int,
        side: Side,
        level_rank: int,
        side_levels: int,
        level_orders: int,
        side_orders: int,
        queue_rank: int,
        cancelled_size: int,
    ) -> "CancellationRecord":
        fields = (cancel_index, side, level_rank, side_levels, level_orders, side_orders,
                  queue_rank, cancelled_size)
        if not (
            1 <= level_rank <= side_levels
            and 1 <= queue_rank <= level_orders <= side_orders
            and cancelled_size > 0
        ):
            raise ValueError(f"inconsistent cancellation record: {tuple.__new__(cls, fields)}")
        return tuple.__new__(cls, fields)

    @classmethod
    def _make(cls, iterable) -> "CancellationRecord":
        # namedtuple's _make (and so _replace) would skip the check in __new__.
        return cls(*iterable)

    @property
    def rel_level(self) -> float:
        """Price-level rank over occupied levels; in (0, 1], 1 = worst level."""
        return self.level_rank / self.side_levels

    @property
    def norm_level(self) -> float:
        """Relative level divided by the level's share of the side's orders.

        Integer products before the single division keep the flat-book
        identity (equal queues => normalized level == level rank) exact.
        """
        return (self.level_rank * self.side_orders) / (self.side_levels * self.level_orders)

    @property
    def queue_frac(self) -> float:
        """FIFO rank over queue length; in (0, 1], 1 = back of the queue."""
        return self.queue_rank / self.level_orders


@dataclass(slots=True)
class ApplyOutcome:
    trades: list[Trade]
    cancellation: CancellationRecord | None = None
    rested: int | None = None


@contextmanager
def gc_paused():
    """Run a block with the cyclic garbage collector off, then restore its state.

    Replay loops allocate millions of events, orders and records that form no
    reference cycles; reference counting frees them, and collector passes
    over them would reclaim nothing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class _BookSide:
    """One ladder: levels keyed by price, plus the sorted priority-signed prices.

    ``keys`` holds ``sign * price`` for every occupied level in ascending
    order, so ``keys[0]`` is the best price and ``keys[rank - 1]`` the level
    of that 1-based rank.
    """

    __slots__ = ("sign", "levels", "keys", "order_count", "total_size")

    def __init__(self, side: Side):
        # Buy prices are negated so ascending keys run from the best price.
        self.sign = -1 if side is Side.BUY else 1
        self.levels: dict[int, PriceLevel] = {}
        self.keys: list[int] = []
        self.order_count = 0
        self.total_size = 0

    def best_price(self) -> int | None:
        return self.sign * self.keys[0] if self.keys else None

    def rank(self, price: int) -> int:
        """1-based rank of an occupied price level under price priority."""
        return bisect_left(self.keys, self.sign * price) + 1

    def price_at(self, rank: int) -> int:
        """Price of the level with this 1-based rank under price priority."""
        return self.sign * self.keys[rank - 1]

    def sorted_prices(self) -> list[int]:
        """Prices in priority order (descending for buys, ascending for sells)."""
        sign = self.sign
        return [sign * key for key in self.keys]

    def add_order(self, order: RestingOrder) -> None:
        level = self.levels.get(order.price_ticks)
        if level is None:
            level = PriceLevel(order.price_ticks, deque())
            self.levels[order.price_ticks] = level
            insort(self.keys, self.sign * order.price_ticks)
        level.queue.append(order)
        self.order_count += 1
        self.total_size += order.remaining_size


class LimitOrderBook:
    """Order book for a single instrument-day."""

    __slots__ = ("buy", "sell", "index", "cancel_count")

    def __init__(self) -> None:
        self.buy = _BookSide(Side.BUY)
        self.sell = _BookSide(Side.SELL)
        self.index: dict[int, RestingOrder] = {}
        self.cancel_count = 0

    def _side(self, side: Side) -> _BookSide:
        return self.buy if side is Side.BUY else self.sell

    def best_bid(self) -> int | None:
        return self.buy.best_price()

    def best_ask(self) -> int | None:
        return self.sell.best_price()

    def apply(self, event: OrderEvent) -> ApplyOutcome:
        """Apply one event, returning trades, cancellation capture, and rest.

        Raises DanglingCancel / CancelSideMismatch / CancelExceedsRemaining /
        DuplicateOrderId on bad input; the book is left unchanged in those
        cases.
        """
        if event.kind is _CANCEL:
            return self._apply_cancel(event)
        return self._apply_submission(event)

    def _apply_submission(self, event: OrderEvent) -> ApplyOutcome:
        index = self.index
        order_id = event.order_id
        if order_id in index:
            raise DuplicateOrderId(f"order {order_id} already resting")
        side = event.side
        own, opp = (self.buy, self.sell) if side is _BUY else (self.sell, self.buy)
        remaining = event.size
        price = event.price_ticks
        trades: list[Trade] = []
        # An opposite level crosses the incoming price when its signed key is
        # at most the price signed the same way.
        opp_keys = opp.keys
        cross_key = opp.sign * price

        while remaining > 0 and opp_keys and opp_keys[0] <= cross_key:
            best = opp.sign * opp_keys[0]
            queue = opp.levels[best].queue
            while remaining > 0 and queue:
                maker = queue[0]
                take = maker.remaining_size
                if take > remaining:
                    take = remaining
                maker.remaining_size -= take
                remaining -= take
                opp.total_size -= take
                trades.append(Trade(maker.order_id, order_id, best, take))
                if maker.remaining_size == 0:
                    queue.popleft()
                    del index[maker.order_id]
                    opp.order_count -= 1
            if not queue:
                del opp.levels[best]
                del opp_keys[0]

        rested = None
        if remaining > 0:
            order = RestingOrder(order_id, side, price, remaining, event.seq)
            own.add_order(order)
            index[order_id] = order
            rested = order_id
            if opp_keys and opp_keys[0] <= cross_key:
                raise CrossedBookInvariantViolation(
                    f"book crossed after resting {order_id} at {price}"
                )
        return ApplyOutcome(trades, None, rested)

    def _apply_cancel(self, event: OrderEvent) -> ApplyOutcome:
        order = self.index.get(event.order_id)
        if order is None:
            raise DanglingCancel(event.order_id)
        if event.side is not order.side:
            raise CancelSideMismatch(
                f"cancel of {event.side.name} side names {order.side.name} order {order.order_id}"
            )
        qty = event.size if event.size > 0 else order.remaining_size
        if qty > order.remaining_size:
            raise CancelExceedsRemaining(
                f"cancel {qty} > remaining {order.remaining_size} for order {order.order_id}"
            )
        book_side = self.buy if order.side is _BUY else self.sell
        keys = book_side.keys
        price = order.price_ticks
        queue = book_side.levels[price].queue
        rank = book_side.rank(price)
        pos = queue.index(order) + 1
        self.cancel_count += 1
        record = CancellationRecord(
            self.cancel_count, order.side, rank, len(keys), len(queue),
            book_side.order_count, pos, qty,
        )

        order.remaining_size -= qty
        book_side.total_size -= qty
        if order.remaining_size == 0:
            del queue[pos - 1]
            del self.index[order.order_id]
            book_side.order_count -= 1
            if not queue:
                del book_side.levels[price]
                del keys[rank - 1]
        return ApplyOutcome([], record, None)

    # -- position queries ---------------------------------------------------

    def level_rank(self, side: Side, price_ticks: int) -> int:
        """1-based rank of a price level under price priority."""
        book_side = self._side(side)
        if price_ticks not in book_side.levels:
            raise UnknownLevel(f"no {side.name} level at {price_ticks}")
        return book_side.rank(price_ticks)

    def queue_position(self, order_id: int) -> int:
        """1-based FIFO position of a resting order within its level."""
        order = self.index.get(order_id)
        if order is None:
            raise UnknownOrder(f"order {order_id} not resting")
        queue = self._side(order.side).levels[order.price_ticks].queue
        return queue.index(order) + 1

    def snapshot_depth(self, side: Side) -> tuple[int, int, list[int]]:
        """(occupied levels, resting orders, per-level queue lengths) for a side."""
        book_side = self._side(side)
        sizes = [len(book_side.levels[p].queue) for p in book_side.sorted_prices()]
        return len(sizes), book_side.order_count, sizes

    # -- diagnostics ----------------------------------------------------------

    def to_state_dict(self) -> dict:
        """JSON-ready dump of resting state, in priority order."""
        def dump(side: _BookSide) -> list[dict]:
            return [
                {
                    "price_ticks": price,
                    "queue": [
                        {"order_id": o.order_id, "remaining_size": o.remaining_size}
                        for o in side.levels[price].queue
                    ],
                }
                for price in side.sorted_prices()
            ]

        return {"buy": dump(self.buy), "sell": dump(self.sell)}

    def check_invariants(self) -> None:
        """Full consistency audit (test hook; O(book size))."""
        bid, ask = self.best_bid(), self.best_ask()
        if bid is not None and ask is not None and bid >= ask:
            raise CrossedBookInvariantViolation(f"crossed book at rest: {bid} >= {ask}")
        seen = 0
        for side_obj, side in ((self.buy, Side.BUY), (self.sell, Side.SELL)):
            count = 0
            total = 0
            for price, level in side_obj.levels.items():
                assert level.queue, f"empty level {price} retained"
                arrivals = [o.arrival_seq for o in level.queue]
                assert arrivals == sorted(arrivals), "queue not in arrival order"
                for order in level.queue:
                    assert order.remaining_size > 0
                    assert order.price_ticks == price and order.side is side
                    assert self.index.get(order.order_id) is order, "index out of sync"
                    count += 1
                    total += order.remaining_size
            assert side_obj.keys == sorted(side_obj.sign * p for p in side_obj.levels), (
                "sorted ladder out of sync"
            )
            assert count == side_obj.order_count, "order_count out of sync"
            assert total == side_obj.total_size, "total_size out of sync"
            seen += count
        assert seen == len(self.index), "index holds stale entries"
