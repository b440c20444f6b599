"""The benchmark's workloads: seeded inputs, the CLI calls of one closed-loop
iteration, and the shape each workload is meant to have.

Every workload is a batch job driven by one client: each `lobcancel` call
starts after the previous one has exited. Sizes are chosen so that one
iteration takes a few seconds on a 2-core machine and the deep_book fits
land inside acceptance criterion 7's tolerances on every seed.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

SMALL_REPEATS = 10            # --repeats of deep_book and panel fits
# `fit` calls per iteration. fit_s is the median over every fit call of a
# run; one ~2 s call per iteration gave too few samples to be steady.
DEEP_FIT_SAMPLES = 2
PANEL_FIT_SAMPLES = 4

DEEP_EVENTS = 300_000
DEEP_GEN = ["--level-law", "lognormal:-2.14,1.11", "--queue-law", "exp:-25",
            "--mix", "0.6,0.0,0.4", "--levels", "127", "--queue-depth", "64"]
# Criterion 7's closure tolerances on the fitted laws of deep_book.
DEEP_TRUTH = {"mu": (-2.14, 0.1), "sigma": (1.11, 0.1), "beta": (-25.0, 3.0)}

PANEL_INSTRUMENTS = 8
PANEL_EVENTS = 8_000          # per instrument
PANEL_GEN = ["--levels", "5", "--queue-depth", "3", "--mix", "0.7,0.2,0.1"]

GOF_CANCELS = 100_000         # in-profile cancels per side, paper scale for one stock
GOF_REPEATS = 250
GOF_INSTRUMENT = "GOF001"


@dataclass
class Call:
    stage: str                # "gen", "profile" or "fit"
    argv: list[str]           # arguments after `lobcancel`
    outputs: list[str]        # files the call writes
    repeat: int = 1           # times one iteration runs the call, back to back


@dataclass
class Plan:
    """One iteration of CLI calls, writing under `out`."""

    calls: list[Call]
    inputs: list[str]         # order-flow CSVs, or fit_gof's prepared artifacts
    profile_dir: str | None   # profiles.json + cancels.csv, when a profile call runs
    fits: str
    gen_events: int = 0
    seeds: dict = field(default_factory=dict)


def _gen(out: str, code: str, events: int, seed: int, extra: list[str]) -> Call:
    path = os.path.join(out, f"{code}.csv")
    argv = ["gen", "--out", path, "--events", str(events), "--seed", str(seed),
            "--instrument", code, *extra]
    return Call("gen", argv, [path])


def profile_call(inputs: list[str], out: str, workers: int) -> Call:
    prof = os.path.join(out, "profile")
    return Call("profile", ["profile", *inputs, "--out", prof, "--workers", str(workers)],
                [os.path.join(prof, "profiles.json"), os.path.join(prof, "cancels.csv")])


def _fit(profiles: str, cancels: str, out: str, models: str, repeats: int, seed: int,
         samples: int = 1) -> Call:
    fits = os.path.join(out, "fits.json")
    argv = ["fit", "--profiles", profiles, "--cancels", cancels, "--out", fits,
            "--models", models, "--repeats", str(repeats), "--seed", str(seed)]
    return Call("fit", argv, [fits], samples)


def deep_book(seed: int, out: str, prepared: str, workers: int = 1) -> Plan:
    gen = _gen(out, "DEEP01", DEEP_EVENTS, seed, DEEP_GEN)
    prof = profile_call(gen.outputs, out, workers)
    fit = _fit(*prof.outputs, out, "lognormal,powerlaw,exp", SMALL_REPEATS, seed,
               DEEP_FIT_SAMPLES)
    return Plan([gen, prof, fit], gen.outputs, os.path.dirname(prof.outputs[0]),
                fit.outputs[0], DEEP_EVENTS, {"gen": seed, "fit": seed})


def panel(seed: int, out: str, prepared: str, workers: int = 2) -> Plan:
    gens = [_gen(out, f"PNL{i:03d}", PANEL_EVENTS, seed * 100 + i, PANEL_GEN)
            for i in range(PANEL_INSTRUMENTS)]
    inputs = [g.outputs[0] for g in gens]
    prof = profile_call(inputs, out, workers)
    fit = _fit(*prof.outputs, out, "lognormal,powerlaw,exp,gamma", SMALL_REPEATS, seed,
               PANEL_FIT_SAMPLES)
    return Plan([*gens, prof, fit], inputs, os.path.dirname(prof.outputs[0]), fit.outputs[0],
                PANEL_EVENTS * PANEL_INSTRUMENTS,
                {"gen": [seed * 100 + i for i in range(PANEL_INSTRUMENTS)], "fit": seed})


def fit_gof(seed: int, out: str, prepared: str, workers: int = 1) -> Plan:
    inputs = [os.path.join(prepared, "profiles.json"), os.path.join(prepared, "cancels.csv")]
    fit = _fit(*inputs, out, "lognormal,powerlaw,exp,gamma", GOF_REPEATS, seed)
    return Plan([fit], inputs, None, fit.outputs[0], 0, {"inputs": seed, "fit": seed})


# -- fit_gof's prepared artifacts ---------------------------------------------

CANCELS_HEADER = (
    "instrument,seq,timestamp,phase,side,cancel_index,level_rank,side_levels,"
    "level_orders,side_orders,queue_rank,rel_level,norm_level,queue_frac,"
    "cancelled_size,order_class,in_profile,in_ratio"
)


def _side_draws(rng, n: int) -> dict[str, np.ndarray]:
    """Book coordinates of n cancels on a deep book with the paper's laws.

    The level coordinate follows the log-normal (-2.14, 1.11) restricted to
    (0, 1] and the queue coordinate the saturating exponential with
    beta = -25, both rounded up onto the rank lattice of a book of 100-140
    levels and queues of 40-240 orders, as replayed cancels are.
    """
    x = rng.lognormal(-2.14, 1.11, 2 * n)
    x = x[x <= 1.0][:n]
    y = rng.random(3 * n)
    y = y[(y > 0.0) & (rng.random(y.size) < 1.0 - np.exp(-25.0 * y))][:n]
    levels = rng.integers(100, 141, n)
    queue = rng.integers(40, 241, n)
    side_orders = levels * 140 + rng.integers(0, 2000, n)
    rank = np.maximum(1, np.ceil(x * levels)).astype(np.int64)
    pos = np.maximum(1, np.ceil(y * queue)).astype(np.int64)
    return {"level_rank": rank, "side_levels": levels, "level_orders": queue,
            "side_orders": side_orders, "queue_rank": pos,
            "rel_level": rank / levels, "norm_level": (rank * side_orders) / (levels * queue),
            "queue_frac": pos / queue}


def _pdf(samples: np.ndarray, edges: np.ndarray, domain: str) -> dict:
    counts, _ = np.histogram(samples, bins=edges)
    n = int(counts.sum())
    return {"edges": edges.tolist(), "density": (counts / (n * np.diff(edges))).tolist(),
            "count": n, "domain": domain}


def prepare_fit_gof(seed: int, prepared: str) -> None:
    """Write profiles.json and cancels.csv of GOF_CANCELS cancels per side.

    The files follow the artifact schema of `lobcancel profile` (schema
    version 1) and are written by the benchmark, not the program, so a
    parent and a change fit byte-identical inputs.
    """
    rng = np.random.default_rng([seed, 7])
    rows = [CANCELS_HEADER]
    sides = {}
    unit_edges = np.linspace(0.0, 1.0, 51)
    seq = 0
    for side, name in (("B", "buy"), ("S", "sell")):
        d = _side_draws(rng, GOF_CANCELS)
        norm = d["norm_level"]
        sides[name] = {
            "orders": 2 * GOF_CANCELS, "cancelled_orders": GOF_CANCELS, "cancel_events": GOF_CANCELS,
            "ratio": 0.5, "fully_filled_orders": 0, "class_ratios": {},
            "pdf_rel_level": _pdf(d["rel_level"], unit_edges, "unit_interval"),
            "pdf_queue_frac": _pdf(d["queue_frac"], unit_edges, "unit_interval"),
            "pdf_norm_level": _pdf(norm, np.geomspace(norm.min(), norm.max(), 61), "positive_ray"),
        }
        cols = [d[k].tolist() for k in ("level_rank", "side_levels", "level_orders",
                                         "side_orders", "queue_rank", "rel_level", "norm_level",
                                         "queue_frac")]
        for i, values in enumerate(zip(*cols)):
            seq += 1
            ms = 34_200_000 + 30 * seq  # 09:30:00.000 plus 30 ms per cancel
            stamp = f"{ms // 3_600_000:02d}:{ms // 60_000 % 60:02d}:{ms // 1000 % 60:02d}.{ms % 1000:03d}"
            rows.append(f"{GOF_INSTRUMENT},{seq},2003-06-02T{stamp},continuous_am,{side},{i + 1},"
                        + ",".join(map(repr, values)) + ",100,at_best,1,1")
    block = {"instrument": GOF_INSTRUMENT, "days": 1, "diagnostics": {}, "sides": sides}
    payload = {"schema_version": 1, "kind": "profiles",
               "config": {"unit_bins": 50, "log_bins": 60, "pooling": "cancel_count"},
               "instruments": [block], "ensemble": dict(block, instrument="__ensemble__")}
    with open(os.path.join(prepared, "profiles.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    with open(os.path.join(prepared, "cancels.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


WORKLOADS = {
    "deep_book": (deep_book, None),
    "panel": (panel, None),
    "fit_gof": (fit_gof, prepare_fit_gof),
}
