"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is deterministic (every randomized piece is seeded).
"""
import math
import random
import time

import numpy as np
from scipy import integrate, optimize, stats

from conftest import build_fixture_events
from lobcancel import distfit as df
from lobcancel.cli import main as cli_main
from lobcancel.lob import LimitOrderBook
from lobcancel.orderflow import EventKind, Side
from lobcancel.profiles import (
    AggressivenessClass,
    BinSpec,
    InstrumentProfile,
    accumulate_pdf,
    count_pdf,
    profile_events,
    ratio_report,
    replay_day,
)
from lobcancel.synth import (
    ExpProfileLaw,
    GenConfig,
    QueueSimConfig,
    TruncLogNormalLaw,
    generate_stream,
    simulate_uniform_queues,
)
from test_lob import BruteBook, cancel_coords, random_stream


def finish(number: int, description: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{verdict}] {description}: {detail}")
    assert ok, f"criterion {number} {description}: {detail}"


def test_criterion_1_lob_oracle_equivalence():
    rng = random.Random(20030101)
    start = time.perf_counter()
    mismatches = cancels = 0
    for trial in range(1000):
        events = random_stream(rng, rng.randrange(20, 201), instrument=f"T{trial}")
        book = LimitOrderBook()
        brute = BruteBook()
        for ev in events:
            want_trades, status = brute.apply(ev)
            if status != "ok":
                try:
                    book.apply(ev)
                    mismatches += 1
                except Exception:
                    pass
                continue
            outcome = book.apply(ev)
            got = [(t.maker_id, t.taker_id, t.price_ticks, t.size) for t in outcome.trades]
            if got != want_trades:
                mismatches += 1
            if ev.kind is EventKind.CANCEL:
                cancels += 1
                if cancel_coords(outcome.cancellation) != brute.last_cancel:
                    mismatches += 1
        if book.to_state_dict() != brute.state():
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    finish(1, "trade-by-trade and cancel-coordinate equality with brute-force matcher "
              "on 1000 streams",
           ok, f"mismatches={mismatches}, cancels checked={cancels}, "
               f"elapsed={elapsed:.1f}s (limit 60s)")


def test_criterion_2_engine_throughput():
    events = generate_stream(GenConfig(seed=3, n_events=1_000_000))
    book = LimitOrderBook()
    rested = {Side.BUY: 0, Side.SELL: 0}
    filled = {Side.BUY: 0, Side.SELL: 0}
    cancelled = {Side.BUY: 0, Side.SELL: 0}
    violations = 0
    start = time.perf_counter()
    for i, ev in enumerate(events):
        outcome = book.apply(ev)
        if ev.kind is EventKind.CANCEL:
            # generated cancels carry the resting order's side
            cancelled[ev.side] += outcome.cancellation.cancelled_size
        else:
            trades = outcome.trades
            if trades:
                taken = 0
                for t in trades:
                    taken += t.size
                filled[Side.SELL if ev.side is Side.BUY else Side.BUY] += taken
                if outcome.rested is not None:
                    rested[ev.side] += ev.size - taken
            elif outcome.rested is not None:
                rested[ev.side] += ev.size
        if i % 1000 == 999:
            for side, book_side in ((Side.BUY, book.buy), (Side.SELL, book.sell)):
                if book_side.total_size != rested[side] - filled[side] - cancelled[side]:
                    violations += 1
    elapsed = time.perf_counter() - start
    book.check_invariants()
    ok = elapsed < 10.0 and violations == 0
    finish(2, "replay 1,000,000 events with sampled conservation checks",
           ok, f"elapsed={elapsed:.2f}s (limit 10s), violations={violations}")


def test_criterion_3_powerlaw_estimator():
    hits = 0
    for seed in range(100):
        draws = df.sample_pareto(10_000, 2.5, 1.0, np.random.default_rng(seed))
        fit = df.fit_powerlaw_tail(draws)
        if abs(fit.alpha - 2.5) <= 0.045:
            hits += 1
    mle_ok = True
    for seed in range(5):
        draws = df.sample_pareto(4_000, 2.5, 1.0, np.random.default_rng(1000 + seed))
        xmin = float(np.quantile(draws, 0.25))
        tail = draws[draws > xmin]
        closed = df.pareto_alpha_mle(tail, xmin)
        m, log_sum = tail.size, float(np.sum(np.log(tail / xmin)))
        res = optimize.minimize_scalar(
            lambda a: -(m * math.log(a - 1.0) - m * math.log(xmin) - a * log_sum),
            bounds=(1.000001, 12.0), method="bounded", options={"xatol": 1e-10},
        )
        if abs(closed - res.x) > 1e-6:
            mle_ok = False
    ok = hits >= 95 and mle_ok
    finish(3, "alpha within 3 stderr on 100 Pareto trials; MLE matches numeric optimum",
           ok, f"hits={hits}/100 (need >=95), mle_closed_form_ok={mle_ok}")


def test_criterion_4_lognormal_fit():
    draws = df.sample_trunc_lognormal(100_000, -2.14, 1.11, np.random.default_rng(42))
    fit = df.fit_lognormal_lsq(accumulate_pdf(draws, BinSpec("uniform", 50)))
    mu_err = abs(fit.mu + 2.14)
    sigma_err = abs(fit.sigma - 1.11)
    z = df.lognormal_unit_mass(-2.14, 1.11)
    z_err = abs(z - stats.norm.cdf(2.14 / 1.11))
    ok = mu_err <= 0.05 and sigma_err <= 0.05 and z_err <= 1e-6 and abs(z - 0.9731) < 5e-5
    finish(4, "truncated log-normal recovery and normalizer identity",
           ok, f"mu_err={mu_err:.4f}, sigma_err={sigma_err:.4f} (tol 0.05), "
               f"z={z:.6f} vs normal-cdf err={z_err:.2e}")


def test_criterion_5_exponential_profile():
    closed = df.exp_profile_norm(-30.34)
    quad, _ = integrate.quad(lambda y: 1.0 - math.exp(-30.34 * y), 0.0, 1.0)
    norm_ok = abs(closed - quad) <= 1e-10 and abs(closed - 0.96704) < 5e-6
    draws = df.sample_exp_profile(100_000, -25.0, np.random.default_rng(8))
    fit = df.fit_exp_profile(accumulate_pdf(draws, BinSpec("uniform", 50)))
    beta_err = abs(fit.beta + 25.0)
    ok = norm_ok and beta_err <= 2.0
    finish(5, "closed-form normalizer vs quadrature; beta recovery",
           ok, f"norm={closed:.8f} (quad diff {abs(closed - quad):.1e}), beta_err={beta_err:.2f} (tol 2)")


def test_criterion_6_queue_peak_experiment():
    start = time.perf_counter()
    result = simulate_uniform_queues(QueueSimConfig(n_queues=1_000_000, seed=0))
    elapsed = time.perf_counter() - start
    h100 = sum(1.0 / n for n in range(1, 101))
    h50 = sum(1.0 / n for n in range(1, 51))
    p1, p1_want = result.prob_at(1.0), h100 / 100.0
    p5, p5_want = result.prob_at(0.5), h50 / 200.0
    top = result.top_masses(2)
    ok = (
        abs(p1 - p1_want) <= 1e-3
        and abs(p5 - p5_want) <= 1e-3
        and top[0][0] == 1.0
        and top[1][0] == 0.5
        and elapsed < 5.0
    )
    finish(6, "uniform-queue point masses match harmonic sums",
           ok, f"P(1)={p1:.5f} (want {p1_want:.5f}), P(0.5)={p5:.5f} (want {p5_want:.5f}), "
               f"top={[(v, round(p, 5)) for v, p in top]}, elapsed={elapsed:.2f}s")


def test_criterion_7_end_to_end_closure():
    cfg = GenConfig(
        seed=42,
        n_events=500_000,
        level_law=TruncLogNormalLaw(-2.14, 1.11),
        queue_law=ExpProfileLaw(-25.0),
        limit_share=0.6,
        marketable_share=0.0,
        cancel_share=0.4,
        initial_levels=127,
        initial_queue=64,
    )
    run = profile_events(generate_stream(cfg))
    ensemble = run.ensemble()
    cancels = len(ensemble.buy.norm_levels) + len(ensemble.sell.norm_levels)
    worst_mu = worst_sigma = worst_beta = 0.0
    for acc in (ensemble.buy, ensemble.sell):
        ln = df.fit_lognormal_lsq(count_pdf(acc.rel_level_counts, BinSpec("uniform", 50)))
        ex = df.fit_exp_profile(count_pdf(acc.queue_frac_counts, BinSpec("uniform", 50)))
        worst_mu = max(worst_mu, abs(ln.mu + 2.14))
        worst_sigma = max(worst_sigma, abs(ln.sigma - 1.11))
        worst_beta = max(worst_beta, abs(ex.beta + 25.0))
    ok = cancels >= 100_000 and worst_mu <= 0.1 and worst_sigma <= 0.1 and worst_beta <= 3.0
    finish(7, "generate -> replay -> profile -> fit closure",
           ok, f"cancels={cancels}, mu_err={worst_mu:.3f}, sigma_err={worst_sigma:.3f} (tol 0.1), "
               f"beta_err={worst_beta:.2f} (tol 3)")


def test_criterion_8_classification_fixture():
    day = replay_day(build_fixture_events())
    profile = InstrumentProfile(day.instrument)
    profile.add_day(day)
    checks = []
    for acc in (profile.buy, profile.sell):
        rr = ratio_report(acc)
        checks.append(rr.orders == 10 and rr.cancelled_orders == 4 and rr.ratio == 0.4)
        for klass in (
            AggressivenessClass.PARTIALLY_FILLED,
            AggressivenessClass.INSIDE_SPREAD,
            AggressivenessClass.AT_BEST,
            AggressivenessClass.INSIDE_BOOK,
        ):
            cr = rr.by_class[klass]
            checks.append(cr.orders == 2 and cr.cancelled == 1 and cr.ratio == 0.5)
        checks.append(acc.orders_by_class[AggressivenessClass.FULLY_FILLED] == 2)
    ok = all(checks)
    finish(8, "hand-enumerated 20-order fixture class counts and ratios",
           ok, f"r=0.4 and r1..r4=0.5 per side: {sum(checks)}/{len(checks)} checks")


def test_criterion_9_pipeline_determinism(tmp_path):
    def pipeline(run_dir):
        run_dir.mkdir()
        streams = []
        for i, code in enumerate(("SYNA", "SYNB")):
            path = run_dir / f"{code}.csv"
            assert cli_main(
                ["gen", "--out", str(path), "--events", "12000", "--seed", str(100 + i),
                 "--instrument", code, "--levels", "15", "--queue-depth", "4"]
            ) == 0
            streams.append(str(path))
        out = run_dir / "artifacts"
        assert cli_main(["profile", *streams, "--out", str(out)]) == 0
        assert cli_main(
            ["fit", "--profiles", str(out / "profiles.json"), "--out", str(out / "fits.json"),
             "--models", "lognormal,powerlaw,exp,gamma", "--repeats", "15", "--seed", "5"]
        ) == 0
        return (out / "profiles.json").read_bytes(), (out / "fits.json").read_bytes()

    profiles_a, fits_a = pipeline(tmp_path / "run_a")
    profiles_b, fits_b = pipeline(tmp_path / "run_b")
    ok = profiles_a == profiles_b and fits_a == fits_b
    finish(9, "byte-identical profiles.json and fits.json across reruns",
           ok, f"profiles equal={profiles_a == profiles_b}, fits equal={fits_a == fits_b}")


def test_criterion_10_pvalue_sanity():
    passed = 0
    for trial in range(100):
        rng = np.random.default_rng([12345, trial])
        draws = df.sample_trunc_lognormal(2000, -2.14, 1.11, rng)
        pdf = accumulate_pdf(draws, BinSpec("uniform", 50))
        fit = df.fit_lognormal_lsq(pdf)
        if df.gof_pvalue_mc(pdf, fit, repeats=99, seed=trial) > 0.05:
            passed += 1
    rng = np.random.default_rng(99)
    gamma_draws = rng.gamma(0.41179, 0.52903, size=300_000)
    gamma_draws = gamma_draws[(gamma_draws > 0) & (gamma_draws <= 1.0)][:100_000]
    pdf = accumulate_pdf(gamma_draws, BinSpec("uniform", 50))
    fit = df.fit_lognormal_lsq(pdf)
    p_gamma = df.gof_pvalue_mc(pdf, fit, repeats=99, seed=5)
    ok = passed >= 90 and p_gamma < 0.05
    finish(10, "Monte Carlo p-value: self-consistent vs misspecified data",
           ok, f"self p>0.05 in {passed}/100 (need >=90), gamma-data p={p_gamma:.3f} (need <0.05)")
