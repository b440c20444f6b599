"""Synthetic order flow with known cancellation-position laws.

The stream generator maintains its own book replica while emitting events, so
every cancel targets a live resting order and the stream replays cleanly. At
each cancellation it picks the price level and the queue position with
probabilities proportional to the configured law densities evaluated on the
current book's grid, which makes the replayed position profiles converge to
the injected laws up to book-discreteness effects.

Also hosts the uniform-queue experiment: queues of random length with a
uniformly chosen cancellation position, whose relative-position density shows
the mechanical peaks at multiples of 1/10 caused by queue-length discreteness.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from itertools import count
from typing import TYPE_CHECKING, Iterator

from .lob import LimitOrderBook, gc_paused
from .orderflow import MS_TEXT, EventKind, OrderEvent, Side
from .profiles import UNIT_BIN_SPEC, EmpiricalPdf, accumulate_pdf

if TYPE_CHECKING:
    import numpy as np


class ConfigInvalid(ValueError):
    pass


@dataclass(frozen=True)
class UniformLaw:
    """Every admissible rank equally likely."""


@dataclass(frozen=True)
class TruncLogNormalLaw:
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ConfigInvalid(f"log-normal law needs a finite mu and sigma > 0, got {self}")


@dataclass(frozen=True)
class ExpProfileLaw:
    beta: float

    def __post_init__(self) -> None:
        # 1 - exp(beta * y) is a density on (0, 1] only for beta < 0.
        if not (math.isfinite(self.beta) and self.beta < 0.0):
            raise ConfigInvalid(f"exponential law needs a finite beta < 0, got {self}")


PositionLaw = UniformLaw | TruncLogNormalLaw | ExpProfileLaw


class _RankSampler:
    """Draws a 1-based rank k of n with weight = law density at k/n.

    Cumulative weights are cached per n, so repeated draws against books of
    similar shape cost O(log n) each.
    """

    def __init__(self, law: PositionLaw, rng: random.Random):
        self.law = law
        self.rng = rng
        self.uniform = isinstance(law, UniformLaw)
        self._cum: dict[int, list[float]] = {}

    def _weights(self, n: int) -> list[float]:
        law = self.law
        if isinstance(law, TruncLogNormalLaw):
            inv_two_s2 = 1.0 / (2.0 * law.sigma**2)
            raw = [
                math.exp(-((math.log(k / n) - law.mu) ** 2) * inv_two_s2) / (k / n)
                for k in range(1, n + 1)
            ]
        else:  # ExpProfileLaw: draw returns before it gets here for a uniform law
            raw = [1.0 - math.exp(law.beta * k / n) for k in range(1, n + 1)]
        cum: list[float] = []
        total = 0.0
        for w in raw:
            total += w
            cum.append(total)
        if total <= 0.0:
            cum = [float(k) for k in range(1, n + 1)]  # fall back to uniform
        return cum

    def draw(self, n: int) -> int:
        if n == 1:
            return 1
        if self.uniform:
            return self.rng.randrange(n) + 1
        cum = self._cum.get(n)
        if cum is None:
            cum = self._cum[n] = self._weights(n)
        r = self.rng.random() * cum[-1]
        return min(bisect_right(cum, r), n - 1) + 1


# The two continuous sessions, in milliseconds: a stream stamps its events at
# most one a millisecond, so it holds at most AM_MS + PM_MS of them.
AM_MS = 7_200_000  # 09:30 - 11:30
PM_MS = 7_200_000  # 13:00 - 15:00


@dataclass(frozen=True)
class GenConfig:
    """Stream generator settings; the seed fully determines the output."""

    seed: int = 0
    n_events: int = 100_000
    instrument: str = "SYN001"
    trading_day: date = date(2003, 6, 2)
    level_law: PositionLaw = field(default_factory=UniformLaw)
    queue_law: PositionLaw = field(default_factory=UniformLaw)
    limit_share: float = 0.6
    marketable_share: float = 0.2
    cancel_share: float = 0.2
    initial_levels: int = 80
    initial_queue: int = 6
    mid_price_ticks: int = 10_000

    def __post_init__(self) -> None:
        shares = (self.limit_share, self.marketable_share, self.cancel_share)
        if not all(0.0 <= s < math.inf for s in shares) or abs(sum(shares) - 1.0) > 1e-9:
            raise ConfigInvalid(f"arrival mix must be finite, non-negative and sum to 1, got {shares}")
        if not 0 <= self.n_events <= AM_MS + PM_MS:
            raise ConfigInvalid(f"n_events must be in 0..{AM_MS + PM_MS}, one a millisecond "
                                f"of the two sessions, got {self.n_events}")
        code = self.instrument  # one CSV field: not empty, no comma, no line break
        if code.splitlines() != [code] or "," in code:
            raise ConfigInvalid(f"instrument code must be one CSV field, got {code!r}")
        if self.initial_levels < 1 or self.initial_queue < 1:
            raise ConfigInvalid("initial book must have at least one level and one order")
        if self.mid_price_ticks <= self.initial_levels:
            raise ConfigInvalid("mid price too low for the requested initial depth")


def session_stamps(day: date, dt_ms: int, text: bool) -> Iterator[datetime | str]:
    """Datetimes, or with ``text`` their ``isoformat('T', 'milliseconds')``, of session
    ms 0, ``dt_ms``, ``2 * dt_ms``, ..., where ms 0 is 09:30:00 and ``AM_MS`` 13:00:00.
    Each second's stamp is made once; its milliseconds come from a 1000-entry table."""
    am = datetime.combine(day, time(9, 30))
    pm = datetime.combine(day, time(13, 0)) - timedelta(milliseconds=AM_MS)
    fracs = MS_TEXT if text else [timedelta(milliseconds=f) for f in range(1000)]
    second = -1
    for ms in count(0, dt_ms):
        s, f = divmod(ms, 1000)
        if s != second:
            second = s
            base = (am if ms < AM_MS else pm) + timedelta(seconds=s)
            base = base.isoformat() if text else base
        yield base + fracs[f]


def _stream(config: GenConfig, text: bool) -> Iterator[OrderEvent]:
    """The one generator loop: ``iter_stream``, with each stamp's text if ``text``."""
    rng = random.Random(config.seed)
    book = LimitOrderBook()
    n_events, code = config.n_events, config.instrument
    # Events spread over the sessions, leaving headroom before the close.
    dt_ms = max(1, min(1000, (AM_MS + PM_MS - 400_000) // max(n_events, 1)))
    stamps = session_stamps(config.trading_day, dt_ms, text)
    level_sampler = _RankSampler(config.level_law, rng)
    queue_sampler = _RankSampler(config.queue_law, rng)
    seq = 0
    next_id = 0
    target_depth = config.initial_levels * config.initial_queue
    min_side_orders = max(1, target_depth // 4)
    max_side_orders = target_depth + target_depth // 2
    band = config.initial_levels
    cancel_cut = config.limit_share + config.marketable_share
    # Members bound once: a lookup on the Enum class (Side.BUY) runs Python
    # code on 3.11, and the loop below makes several per event.
    buy, sell = Side.BUY, Side.SELL
    limit, marketable, cancel = EventKind.LIMIT, EventKind.MARKETABLE, EventKind.CANCEL
    new = tuple.__new__  # OrderEvent's own __new__ is a Python function on 3.11

    def submission(kind: EventKind, side: Side, price: int, size: int) -> OrderEvent:
        nonlocal seq, next_id
        seq += 1
        next_id += 1
        ev = new(OrderEvent, (seq, next(stamps), code, next_id, kind, side, price, size))
        book.submit(ev)
        return ev

    # Seed phase: two ladders of stacked non-crossing limits. Depths are
    # randomized around initial_queue so queue lengths mix from the start;
    # a single shared length would alias the position grid k/n against the
    # profile bins.
    mid = config.mid_price_ticks
    lo_depth = max(1, config.initial_queue // 2)
    hi_depth = config.initial_queue + config.initial_queue // 2
    for level in range(config.initial_levels):
        for side, price in ((buy, mid - 1 - level), (sell, mid + 1 + level)):
            for _ in range(rng.randrange(lo_depth, hi_depth + 1)):
                if seq >= n_events:
                    return
                yield submission(limit, side, price, rng.randrange(1, 11) * 100)

    while seq < n_events:
        if rng.random() < 0.5:
            side, own, opp = buy, book.buy, book.sell
        else:
            side, own, opp = sell, book.sell, book.buy
        u = rng.random()
        # Depth guards: starved sides fall back to limits, overgrown sides to
        # cancels, keeping queue lengths near the configured depth. A zero
        # cancel share disables the overflow diversion: such streams must not
        # contain cancel events at all.
        want_cancel = u >= cancel_cut or (
            config.cancel_share > 0.0
            and u < config.limit_share
            and own.order_count > max_side_orders
        )
        if want_cancel and own.order_count > min_side_orders:
            rank = level_sampler.draw(len(own.keys))
            queue = own.levels[own.sign * own.keys[rank - 1]]
            victim = book.cancel_at(side, rank, queue_sampler.draw(len(queue)))
            seq += 1
            yield new(OrderEvent, (seq, next(stamps), code, victim.order_id, cancel, side,
                                   victim.price_ticks, 0))
        elif config.limit_share <= u < cancel_cut and opp.order_count > min_side_orders:
            yield submission(marketable, side, opp.best_price(), rng.randrange(1, 23) * 100)
        else:
            # Placement depth follows the level law so per-level inflow balances
            # the law-shaped cancellation outflow and queues keep their depth.
            # Front placements step inside the spread when a gap is open. ``away``
            # steps from the side's best price toward its worse ones.
            best, other = own.best_price(), opp.best_price()
            away = -1 if side is buy else 1
            offset = level_sampler.draw(band) - 1
            if (offset == 0 and best is not None and other is not None
                    and away * (best - other) > 1 and rng.random() < 0.5):
                price = best - away
            else:
                anchor = best if best is not None else (other + away if other is not None else mid)
                price = anchor + away * offset
            yield submission(limit, side, max(price, 1), rng.randrange(1, 11) * 100)


def iter_stream(config: GenConfig) -> Iterator[OrderEvent]:
    """Yield a replayable event stream of exactly ``config.n_events`` events.

    The stream opens with non-crossing limits building ``initial_levels``
    price levels of ``initial_queue`` orders per side, then mixes limits,
    marketables, and full cancels per the configured shares. Sides starved of
    resting orders fall back to limit submissions, which keeps the book deep
    enough for the position laws to act on. Each event is made as it is
    asked for, so the generator holds its book replica, not the stream.
    """
    return _stream(config, False)


def iter_rows(config: GenConfig) -> Iterator[str]:
    """``OrderEvent.to_row`` of each ``iter_stream(config)`` event, written from
    the event's integers and its stamp's text, with no datetime made."""
    for seq, stamp, code, order_id, kind, side, price, size in _stream(config, True):
        yield f"{seq},{stamp},{code},{order_id},{kind._value_},{side._value_},{price},{size}"


@gc_paused()
def generate_stream(config: GenConfig) -> list[OrderEvent]:
    """The whole ``iter_stream`` of ``config`` as a list, made with the
    cyclic garbage collector paused (see ``lob.gc_paused``)."""
    return list(iter_stream(config))


# -- uniform-queue experiment ---------------------------------------------------


@dataclass(frozen=True)
class QueueSimConfig:
    n_queues: int = 1_000_000
    max_length: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_queues < 1:
            raise ConfigInvalid("n_queues must be >= 1")
        if self.max_length < 1:
            raise ConfigInvalid("max_length must be >= 1")


@dataclass
class QueueSimResult:
    mass_values: np.ndarray  # distinct relative positions, ascending
    mass_probs: np.ndarray   # occurrence probability of each value
    pdf: EmpiricalPdf        # the same draws, binned on the standard grid

    def prob_at(self, value: float) -> float:
        """Exact point mass at a relative position (0 when never observed)."""
        import numpy as np

        idx = np.searchsorted(self.mass_values, value)
        if idx < self.mass_values.size and self.mass_values[idx] == value:
            return float(self.mass_probs[idx])
        return 0.0

    def top_masses(self, k: int) -> list[tuple[float, float]]:
        """The k largest point masses as (value, probability), descending."""
        import numpy as np

        order = np.argsort(self.mass_probs)[::-1][:k]
        return [(float(self.mass_values[i]), float(self.mass_probs[i])) for i in order]


def simulate_uniform_queues(config: QueueSimConfig) -> QueueSimResult:
    """Relative cancellation positions in queues with no position preference.

    Queue lengths are uniform on [1, max_length] and the cancelled position is
    uniform within each queue. The relative position y/n then piles up on
    coarse rationals, which is the mechanical source of the peaks at
    multiples of 0.1; the two largest masses sit at 1 and 1/2. numpy is
    imported here, so that generating a stream does not load it.
    """
    import numpy as np

    rng = np.random.default_rng(config.seed)
    lengths = rng.integers(1, config.max_length, size=config.n_queues, endpoint=True)
    positions = rng.integers(1, lengths, endpoint=True)
    rel = positions / lengths
    values, counts = np.unique(rel, return_counts=True)
    return QueueSimResult(
        mass_values=values,
        mass_probs=counts / config.n_queues,
        pdf=accumulate_pdf(rel, UNIT_BIN_SPEC),
    )
