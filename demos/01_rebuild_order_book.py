"""Rebuild a limit-order book from an order-flow file, step by step.

Replays the bundled 20-order sample stream, printing the trades the matcher
produces and the book coordinates captured for every cancellation.
"""
from pathlib import Path

from lobcancel import LimitOrderBook, parse_stream, replay_day
from lobcancel.orderflow import split_days

STREAM = Path(__file__).resolve().parents[1] / "tests" / "data" / "classification_fixture.csv"

result = parse_stream(STREAM.read_text(encoding="utf-8"))
print(f"parsed {len(result.events)} events, {len(result.errors)} errors")

((key, events),) = split_days(result.events).items()
print(f"instrument {key[0]}, trading day {key[1]}")

# The stream is all continuous-session events, so a bare book applies them in
# the order replay_day does; it shows the trades each submission makes.
book = LimitOrderBook()
print("\ntrades (maker, taker, price, size):")
for ev in events:
    for t in book.apply(ev).trades:
        print(f"  {t.maker_id} <- {t.taker_id}  @ {t.price_ticks} x {t.size}")

day = replay_day(events)

print("\ncancellations (1 = best level / front of queue):")
print("  side  level_rank/levels  queue_rank/queue  rel_level  norm_level  queue_frac")
for obs in day.observations:
    r = obs.record
    print(
        f"  {r.side.value}     {r.level_rank}/{r.side_levels}                "
        f"{r.queue_rank}/{r.level_orders}               "
        f"{r.rel_level:.3f}      {r.norm_level:.3f}       {r.queue_frac:.3f}"
    )

print("\nfinal book:")
state = day.book.to_state_dict()
for side in ("buy", "sell"):
    for level in state[side]:
        qty = sum(o["remaining_size"] for o in level["queue"])
        print(f"  {side:<4} {level['price_ticks']}: {qty} shares in {len(level['queue'])} order(s)")
