"""Cancellation position profiles on a synthetic market.

Generates an order flow whose cancellations follow known position laws,
replays it, and prints the per-class cancellation ratios plus the binned
densities of the three position coordinates.
"""
import numpy as np

from lobcancel import (
    ExpProfileLaw,
    GenConfig,
    TruncLogNormalLaw,
    generate_stream,
    profile_events,
    ratio_report,
)
from lobcancel.profiles import BinSpec, CANCELLABLE_CLASSES, count_pdf

config = GenConfig(
    seed=7,
    n_events=60_000,
    level_law=TruncLogNormalLaw(mu=-2.14, sigma=1.11),   # cancels cluster near the best
    queue_law=ExpProfileLaw(beta=-25.0),                 # queue fronts rarely cancelled
    initial_levels=60,
    initial_queue=24,
)
events = generate_stream(config)
print(f"generated {len(events)} events with seed {config.seed}")

run = profile_events(events)
profile = run.per_instrument[config.instrument]
print(f"diagnostics: {dict(profile.diagnostics) or 'none'}")

for name, acc in (("buy", profile.buy), ("sell", profile.sell)):
    rr = ratio_report(acc)
    print(f"\n{name} side: {rr.orders} orders, {rr.cancelled_orders} cancelled, r = {rr.ratio:.3f}")
    for klass in CANCELLABLE_CLASSES:
        cr = rr.by_class[klass]
        shown = "n/a" if cr.ratio is None else f"{cr.ratio:.3f}"
        print(f"  {klass.value:<17} {cr.cancelled:>6} / {cr.orders:<6} ratio {shown}")

# binned density of the relative price level, printed as a crude bar chart;
# the profile keeps a count per (level rank, levels) pair, binned here
acc = profile.buy
pdf = count_pdf(acc.rel_level_counts, BinSpec("uniform", 25))
print(f"\nbuy-side relative-level density ({pdf.count} cancels):")
for center, dens in zip(pdf.centers(), pdf.density):
    print(f"  {center:4.2f} {'#' * int(round(dens * 12))}")

norm = np.asarray(acc.norm_levels)
print(f"\nnormalized levels: median {np.median(norm):.2f}, "
      f"95th pct {np.percentile(norm, 95):.2f}, max {norm.max():.2f}")
