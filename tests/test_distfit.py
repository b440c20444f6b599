import math
import random

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from lobcancel import distfit as df
from lobcancel.profiles import BinSpec, accumulate_pdf, pdf_from_counts

RNG = lambda seed: np.random.default_rng(seed)


# -- normalizers against quadrature ------------------------------------------------


def raw_lognormal(x, mu, sigma):
    return np.exp(-((np.log(x) - mu) ** 2) / (2 * sigma**2)) / (
        math.sqrt(2 * math.pi) * sigma * x
    )


@pytest.mark.parametrize("mu,sigma", [(-2.14, 1.11), (-2.29, 1.35), (0.5, 0.3), (-5.0, 2.0)])
def test_lognormal_unit_mass_matches_quadrature(mu, sigma):
    closed = df.lognormal_unit_mass(mu, sigma)
    quad, _ = integrate.quad(raw_lognormal, 0.0, 1.0, args=(mu, sigma), limit=200)
    assert abs(closed - quad) < 1e-10
    assert closed == pytest.approx(stats.norm.cdf(-mu / sigma), abs=1e-12)


def test_lognormal_unit_mass_anchor_value():
    # ensemble-buy parameters: mass on (0, 1] is about 0.9731
    z = df.lognormal_unit_mass(-2.14, 1.11)
    assert z == pytest.approx(0.9731, abs=5e-5)
    assert abs(z - stats.norm.cdf(2.14 / 1.11)) < 1e-6


@pytest.mark.parametrize("beta", [-30.34, -21.51, -0.5, -100.0])
def test_exp_profile_norm_matches_quadrature(beta):
    closed = df.exp_profile_norm(beta)
    quad, _ = integrate.quad(lambda y: 1.0 - math.exp(beta * y), 0.0, 1.0)
    assert abs(closed - quad) < 1e-10


def test_exp_profile_norm_anchor_and_series():
    assert df.exp_profile_norm(-30.34) == pytest.approx(0.96704, abs=5e-6)
    # series branch stays continuous through the removable singularity
    for beta in (-1e-7, -1e-9, 1e-8):
        quad, _ = integrate.quad(lambda y: 1.0 - math.exp(beta * y), 0.0, 1.0)
        assert abs(df.exp_profile_norm(beta) - quad) < 1e-12


@pytest.mark.parametrize(
    "pdf_fn,args",
    [
        (df.trunc_lognormal_pdf, (-2.14, 1.11)),
        (df.trunc_lognormal_pdf, (-1.0, 0.4)),
        (df.trunc_gamma_pdf, (0.8, 0.5)),
        (df.exp_profile_pdf, (-25.0,)),
    ],
)
def test_model_densities_integrate_to_one(pdf_fn, args):
    quad, _ = integrate.quad(lambda x: float(pdf_fn(x, *args)), 0.0, 1.0, limit=200)
    assert quad == pytest.approx(1.0, abs=1e-6)


def test_pareto_density_integrates_to_one():
    alpha, xmin = 2.5, 1.3
    quad, _ = integrate.quad(
        lambda x: (alpha - 1) / xmin * (x / xmin) ** (-alpha), xmin, np.inf
    )
    assert quad == pytest.approx(1.0, abs=1e-6)


# -- samplers ----------------------------------------------------------------------


def test_sample_trunc_lognormal_domain_and_distribution():
    xs = df.sample_trunc_lognormal(20_000, -2.14, 1.11, RNG(3))
    assert np.all(xs > 0.0) and np.all(xs <= 1.0)
    z = df.lognormal_unit_mass(-2.14, 1.11)
    cdf = lambda v: stats.norm.cdf((np.log(v) + 2.14) / 1.11) / z
    assert stats.kstest(xs, cdf).pvalue > 1e-4


def test_lognormal_sampler_quantile_against_scipy_ndtri():
    """The standard library's normal quantile (Wichura's AS 241) that the
    sampler maps through, against scipy's ``ndtri``, on a grid dense in both
    tails: at most 7 ulps apart, the largest gap 2.5e-14 (at p = 6.7e-188)."""
    from statistics import NormalDist

    from scipy.special import ndtri

    p = np.concatenate([np.logspace(-300, -1, 20_001), np.linspace(0, 1, 20_001)[1:-1],
                        1.0 - np.logspace(-16, -1, 20_001)])
    got = np.array([NormalDist().inv_cdf(q) for q in p.tolist()])
    ref = ndtri(p)
    assert np.all(np.sign(got) == np.sign(ref))
    ulps = np.abs(got.view(np.int64) - ref.view(np.int64))  # same sign, so adjacent bit patterns
    assert ulps.max() == 7 and np.abs(got - ref).max() < 3e-14
    # The sampler keeps its uniform draws and is ndtri's map to within those ulps.
    mu, sigma = -2.14, 1.11
    u = 1.0 - RNG(9).random(10_000)
    want = np.exp(mu + sigma * ndtri(u * df.lognormal_unit_mass(mu, sigma)))
    assert np.allclose(df.sample_trunc_lognormal(10_000, mu, sigma, RNG(9)), want,
                       rtol=1e-13, atol=0)


def test_sample_pareto_domain_and_distribution():
    xs = df.sample_pareto(20_000, 2.5, 1.0, RNG(4))
    assert np.all(xs >= 1.0)
    cdf = lambda v: 1.0 - v ** (-1.5)
    assert stats.kstest(xs, cdf).pvalue > 1e-4


def test_sample_exp_profile_domain_and_distribution():
    beta = -25.0
    xs = df.sample_exp_profile(20_000, beta, RNG(5))
    assert np.all(xs > 0.0) and np.all(xs <= 1.0)
    z = df.exp_profile_norm(beta)
    cdf = lambda v: (v - (np.exp(beta * v) - 1.0) / beta) / z
    assert stats.kstest(xs, cdf).pvalue > 1e-4


def test_samplers_deterministic():
    a = df.sample_trunc_lognormal(100, -2.0, 1.0, RNG(11))
    b = df.sample_trunc_lognormal(100, -2.0, 1.0, RNG(11))
    assert np.array_equal(a, b)


# -- truncated log-normal fit ---------------------------------------------------------


def test_lognormal_fit_recovers_parameters():
    xs = df.sample_trunc_lognormal(100_000, -2.14, 1.11, RNG(42))
    fit = df.fit_lognormal_lsq(accumulate_pdf(xs, BinSpec("uniform", 50)))
    assert fit.mu == pytest.approx(-2.14, abs=0.05)
    assert fit.sigma == pytest.approx(1.11, abs=0.05)
    assert fit.unit_mass == pytest.approx(df.lognormal_unit_mass(fit.mu, fit.sigma), abs=1e-12)
    assert fit.rms >= 0.0
    assert not fit.at_bound


def test_lognormal_fit_rms_definition():
    xs = df.sample_trunc_lognormal(5000, -2.0, 1.0, RNG(1))
    pdf = accumulate_pdf(xs, BinSpec("uniform", 50))
    fit = df.fit_lognormal_lsq(pdf)
    model = df.trunc_lognormal_pdf(pdf.centers(), fit.mu, fit.sigma)
    rms = math.sqrt(float(np.mean((model - pdf.density) ** 2)))
    assert fit.rms == pytest.approx(rms, rel=1e-12)


def test_lognormal_fit_rejects_degenerate_pdf():
    pdf = accumulate_pdf([0.5] * 100, BinSpec("uniform", 50))
    with pytest.raises(df.TooFewBins):
        df.fit_lognormal_lsq(pdf)


def test_lognormal_fit_deterministic():
    xs = df.sample_trunc_lognormal(20_000, -2.3, 1.2, RNG(77))
    pdf = accumulate_pdf(xs, BinSpec("uniform", 50))
    assert df.fit_lognormal_lsq(pdf) == df.fit_lognormal_lsq(pdf)


def test_gamma_fit_and_model_comparison():
    # on log-normal data the log-normal body fit should beat the gamma fit
    xs = df.sample_trunc_lognormal(100_000, -2.14, 1.11, RNG(15))
    pdf = accumulate_pdf(xs, BinSpec("uniform", 50))
    ln_fit = df.fit_lognormal_lsq(pdf)
    g_fit = df.fit_gamma_lsq(pdf)
    assert g_fit.shape > 0 and g_fit.scale > 0
    assert 0 < g_fit.unit_mass <= 1
    assert ln_fit.rms < g_fit.rms
    assert not ln_fit.at_bound and not g_fit.at_bound


def test_body_fits_flag_a_stop_on_their_box():
    # uniform data on (0, 1]: the log-normal runs to the top of mu's box and
    # the gamma to the top of scale's, and neither may pass for converged
    pdf = accumulate_pdf(1.0 - RNG(16).random(30_000), BinSpec("uniform", 50))
    ln_fit = df.fit_lognormal_lsq(pdf)
    g_fit = df.fit_gamma_lsq(pdf)
    assert ln_fit.mu == pytest.approx(df.MU_BOUNDS[1]) and ln_fit.at_bound
    assert g_fit.scale == pytest.approx(df.GAMMA_SCALE_BOUNDS[1]) and g_fit.at_bound


# -- Monte Carlo goodness of fit ---------------------------------------------------


def test_gof_pvalue_requires_repeats():
    xs = df.sample_trunc_lognormal(2000, -2.14, 1.11, RNG(0))
    pdf = accumulate_pdf(xs, BinSpec("uniform", 50))
    fit = df.fit_lognormal_lsq(pdf)
    with pytest.raises(ValueError):
        df.gof_pvalue_mc(pdf, fit, repeats=0, seed=1)


def test_gof_pvalue_deterministic_and_bounded():
    xs = df.sample_trunc_lognormal(2000, -2.14, 1.11, RNG(2))
    pdf = accumulate_pdf(xs, BinSpec("uniform", 50))
    fit = df.fit_lognormal_lsq(pdf)
    p1 = df.gof_pvalue_mc(pdf, fit, repeats=60, seed=9)
    p2 = df.gof_pvalue_mc(pdf, fit, repeats=60, seed=9)
    assert p1 == p2
    assert 0.0 <= p1 <= 1.0


def test_gof_pvalue_rejects_misspecified_data():
    rng = RNG(99)
    draws = rng.gamma(0.41, 0.53, size=80_000)
    draws = draws[(draws > 0) & (draws <= 1.0)][:20_000]
    pdf = accumulate_pdf(draws, BinSpec("uniform", 50))
    fit = df.fit_lognormal_lsq(pdf)
    assert df.gof_pvalue_mc(pdf, fit, repeats=49, seed=3) < 0.05


# -- power-law tail -------------------------------------------------------------------


def test_powerlaw_recovery_single_draw():
    xs = df.sample_pareto(10_000, 2.5, 1.0, RNG(12))
    fit = df.fit_powerlaw_tail(xs)
    assert fit.alpha == pytest.approx(2.5, abs=3 * fit.stderr)
    assert fit.xmin <= 1.2
    assert fit.tail_size >= 50
    assert 0.0 <= fit.ks <= 1.0


def test_powerlaw_stderr_identity_exact():
    xs = df.sample_pareto(5_000, 2.2, 1.0, RNG(13))
    fit = df.fit_powerlaw_tail(xs)
    assert fit.stderr * math.sqrt(fit.tail_size) == pytest.approx(fit.alpha - 1.0, rel=1e-15)


def test_powerlaw_too_few_samples():
    with pytest.raises(df.TooFewSamples):
        df.fit_powerlaw_tail([1.0, 2.0])


def test_powerlaw_tail_too_small():
    with pytest.raises(df.TailTooSmall):
        df.fit_powerlaw_tail([3.0] * 200)  # no value has 50 samples strictly above


def test_powerlaw_deterministic():
    xs = df.sample_pareto(3_000, 2.0, 1.0, RNG(14))
    assert df.fit_powerlaw_tail(xs) == df.fit_powerlaw_tail(xs)


def test_mle_matches_numeric_likelihood_maximization():
    for seed in range(5):
        xs = df.sample_pareto(4_000, 2.4, 1.0, RNG(seed))
        xmin = float(np.quantile(xs, 0.3))
        tail = xs[xs > xmin]
        closed = df.pareto_alpha_mle(tail, xmin)
        m = tail.size
        log_sum = float(np.sum(np.log(tail / xmin)))

        def neg_loglik(alpha):
            return -(m * math.log(alpha - 1.0) - m * math.log(xmin) - alpha * log_sum)

        res = optimize.minimize_scalar(
            neg_loglik, bounds=(1.000001, 12.0), method="bounded",
            options={"xatol": 1e-10},
        )
        assert closed == pytest.approx(res.x, abs=1e-6)


def test_ks_matches_brute_force():
    xs = df.sample_pareto(2_000, 2.1, 1.0, RNG(21))
    xmin = float(np.quantile(xs, 0.4))
    tail = np.sort(xs[xs > xmin])
    alpha = df.pareto_alpha_mle(tail, xmin)
    got = df.pareto_ks(tail, xmin, alpha)
    m = tail.size
    brute = 0.0
    for i, v in enumerate(tail, start=1):
        model = 1.0 - (xmin / v) ** (alpha - 1.0)
        brute = max(brute, abs(i / m - model))
    assert got == pytest.approx(brute, rel=1e-15)
    # the rank/m convention differs from (rank-1)/m by at most 1/m
    brute_low = max(
        abs((i - 1) / m - (1.0 - (xmin / v) ** (alpha - 1.0))) for i, v in enumerate(tail, 1)
    )
    assert abs(brute_low - got) <= 1.0 / m + 1e-12


def test_powerlaw_candidate_thinning_keeps_extremes(monkeypatch):
    monkeypatch.setattr(df, "MAX_TAIL_CANDIDATES", 100)
    xs = df.sample_pareto(50_000, 2.5, 1.0, RNG(31))
    fit = df.fit_powerlaw_tail(xs)
    # pure power-law data: the scan must still reach the smallest thresholds
    assert fit.xmin < 1.5
    assert fit.tail_size > 10_000


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_powerlaw_rejects_non_finite_samples(bad):
    xs = df.sample_pareto(500, 2.5, 1.0, RNG(32))
    xs[17] = bad
    with pytest.raises(ValueError, match="finite"):
        df.fit_powerlaw_tail(xs)


@pytest.mark.parametrize("bad", [0.0, -1.5])
def test_powerlaw_rejects_non_positive_samples(bad):
    xs = df.sample_pareto(500, 2.5, 1.0, RNG(32))
    xs[17] = bad
    with pytest.raises(ValueError, match="positive"):
        df.fit_powerlaw_tail(xs)


def _full_scan(samples) -> df.PowerLawFit:
    """fit_powerlaw_tail without pruning: the full KS distance at every candidate."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    uniq = np.unique(xs)
    candidates = uniq[n - np.searchsorted(xs, uniq, side="right") >= df.MIN_TAIL_SIZE]
    if candidates.size > df.MAX_TAIL_CANDIDATES:
        keep = np.round(np.linspace(0, candidates.size - 1, df.MAX_TAIL_CANDIDATES))
        candidates = candidates[np.unique(keep.astype(int))]
    suffix_log = np.concatenate((np.cumsum(np.log(xs)[::-1])[::-1], [0.0]))
    best = None
    for xmin in candidates.tolist():
        i = int(np.searchsorted(xs, xmin, side="right"))
        m = n - i
        alpha = float(1.0 + m / (suffix_log[i] - m * math.log(xmin)))
        model = 1.0 - (xmin / xs[i:]) ** (alpha - 1.0)
        ks = float(np.max(np.abs(np.arange(1, m + 1) / m - model)))
        if best is None or ks < best.ks:  # ascending xmin: the smallest wins a tie
            best = df.PowerLawFit(alpha, xmin, m, (alpha - 1.0) / math.sqrt(m), ks)
    return best


def _lattice_levels(n, rng):
    """Normalized levels (k * S) / (L * q) of integer book counts, as `fit` derives them."""
    side_levels = rng.integers(1, 60, n)
    level_rank = rng.integers(1, side_levels + 1)
    side_orders = rng.integers(side_levels, 40 * side_levels + 1)
    level_orders = rng.integers(1, side_orders // side_levels + 1)
    return (level_rank * side_orders) / (side_levels * level_orders)


_TAIL_DRAWS = {
    "pareto": lambda rng: df.sample_pareto(5_000, 2.3, 1.0, rng),
    "lognormal_body_pareto_tail": lambda rng: np.concatenate(
        (np.exp(rng.normal(0.0, 1.0, 4_000)), df.sample_pareto(800, 2.6, 3.0, rng))),
    "integer_lattice": lambda rng: _lattice_levels(6_000, rng),
    "rounded_ties": lambda rng: np.round(df.sample_pareto(4_000, 2.2, 1.0, rng), 1),
    "n_100": lambda rng: df.sample_pareto(100, 2.5, 1.0, rng),
}


# The bound compares _KS_POINTS of each tail's points: "stride_1" sets it to
# n, so every tail point is compared, and "stride_above_n" to 1, the loosest
# bound, each tail's first point alone.
@pytest.mark.parametrize("setting", ["default", "candidates_100", "stride_1", "stride_above_n"])
@pytest.mark.parametrize("draw", sorted(_TAIL_DRAWS))
def test_pruned_scan_equals_full_scan(draw, setting, monkeypatch):
    if setting == "candidates_100":
        monkeypatch.setattr(df, "MAX_TAIL_CANDIDATES", 100)
    elif setting == "stride_above_n":
        monkeypatch.setattr(df, "_KS_POINTS", 1)
    for seed in range(3):
        xs = _TAIL_DRAWS[draw](RNG(seed))
        if setting == "stride_1":
            monkeypatch.setattr(df, "_KS_POINTS", xs.size)
        want = _full_scan(xs)
        got = df.fit_powerlaw_tail(xs)
        assert got == want
        assert repr(got) == repr(want)  # the same float types too, as fits.json writes them


def test_the_equivalence_draws_have_ties_and_thinning():
    # the draws above reach what they are named for: tied values, and more
    # candidates than the scan keeps
    assert np.unique(_TAIL_DRAWS["rounded_ties"](RNG(0))).size < 1_000
    lattice = _TAIL_DRAWS["integer_lattice"](RNG(0))
    assert np.unique(lattice).size < lattice.size
    assert np.unique(_TAIL_DRAWS["pareto"](RNG(0))).size > df.MAX_TAIL_CANDIDATES + df.MIN_TAIL_SIZE


def test_pruned_scan_breaks_ties_toward_the_smallest_threshold(monkeypatch):
    # every full distance ties and the bounds fall with xmin, so the scan
    # visits the largest threshold first and must still return the smallest
    monkeypatch.setattr(df, "_ks_distance", lambda xs, i, xmin, alpha: 0.5)
    monkeypatch.setattr(df, "_ks_lower_bounds",
                        lambda xs, first, xmin, alpha: 0.5 - 1e-3 * first / xs.size)
    xs = df.sample_pareto(2_000, 2.5, 1.0, RNG(34))
    fit = df.fit_powerlaw_tail(xs)
    assert (fit.xmin, fit.ks) == (float(np.min(xs)), 0.5)


def test_pruned_scan_makes_few_full_ks_passes(monkeypatch):
    full_passes = []
    ks_distance = df._ks_distance

    def counting(xs, i, xmin, alpha):
        full_passes.append(xmin)
        return ks_distance(xs, i, xmin, alpha)

    monkeypatch.setattr(df, "_ks_distance", counting)
    rng = RNG(33)
    xs = np.concatenate((np.exp(rng.normal(0.0, 1.0, 90_000)), df.sample_pareto(10_000, 2.5, 3.0, rng)))
    fit = df.fit_powerlaw_tail(xs)
    assert fit.xmin in full_passes
    assert 1 <= len(full_passes) <= 10  # of MAX_TAIL_CANDIDATES = 500 candidates


def _ks_distance_whole_tail(xs, i, xmin, alpha):
    """The KS distance as one expression over the whole tail, unsliced."""
    m = xs.size - i
    model = 1.0 - (xmin / xs[i:]) ** (alpha - 1.0)
    return float(np.max(np.abs(np.arange(1, m + 1) / m - model)))


def test_sliced_ks_distance_equals_the_whole_tail_expression():
    # The slices' elementwise floats are the whole expression's, so the
    # distances agree bit for bit, tails shorter and longer than a slice and
    # ones ending a point past a slice's end included.
    rng = RNG(36)
    xs = np.sort(df.sample_pareto(3 * df._KS_BLOCK + 1, 2.5, 1.0, rng))
    starts = [0, 1, df._KS_BLOCK - 1, df._KS_BLOCK, 2 * df._KS_BLOCK + 1, xs.size - 60]
    starts += rng.integers(0, xs.size - 50, 40).tolist()
    for i in starts:
        xmin, alpha = float(xs[max(i - 1, 0)]), 1.0 + 3.0 * float(rng.random())
        assert df._ks_distance(xs, i, xmin, alpha) == _ks_distance_whole_tail(xs, i, xmin, alpha)


def test_full_ks_distance_memory_does_not_grow_with_the_tail():
    import tracemalloc

    peaks = []
    for n in (50_000, 1_000_000):
        xs = np.sort(df.sample_pareto(n, 2.5, 1.0, RNG(37)))
        tracemalloc.start()
        try:
            df._ks_distance(xs, 0, float(xs[0]), 2.5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a few slices of _KS_BLOCK floats whatever n is (the peaks read 5 with
    # numpy 2.4), where the whole-tail expression built about seven arrays of
    # n floats
    assert max(peaks) < 10 * df._KS_BLOCK * 8
    assert peaks[1] < 1.1 * peaks[0]


def test_the_bound_pass_memory_does_not_grow_with_the_tail():
    import tracemalloc

    peaks = []
    for n in (10_000, 1_000_000):
        xs = np.sort(df.sample_pareto(n, 2.5, 1.0, RNG(35)))
        first = np.round(np.linspace(0, n - df.MIN_TAIL_SIZE, df.MAX_TAIL_CANDIDATES)).astype(int)
        xmin, alpha = xs[np.maximum(first - 1, 0)], np.full(first.size, 2.5)
        tracemalloc.start()
        try:
            bounds = df._ks_lower_bounds(xs, first, xmin, alpha)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert bounds.shape == first.shape
    # a few blocks of _KS_BLOCK floats, 64 KB each, whatever n is: the peaks
    # read 6.1 blocks with numpy 2.4, where one float per sample of a 1M tail
    # would take 122, and one (candidates x _KS_POINTS) array 8
    assert max(peaks) < 10 * df._KS_BLOCK * 8
    assert peaks[1] < 1.1 * peaks[0]


# -- exponential queue profile -----------------------------------------------------


def test_exp_profile_recovery():
    ys = df.sample_exp_profile(100_000, -25.0, RNG(8))
    fit = df.fit_exp_profile(accumulate_pdf(ys, BinSpec("uniform", 50)))
    assert fit.beta == pytest.approx(-25.0, abs=2.0)
    assert not fit.at_bound
    assert fit.norm == pytest.approx(df.exp_profile_norm(fit.beta), abs=1e-12)


def test_exp_profile_fit_respects_boundary_contract():
    # near-uniform data pushes beta to the steep end of its box (a flat
    # profile is beta -> -inf); the fit must stay inside the box and say so
    rng = RNG(16)
    ys = 1.0 - rng.random(30_000)
    fit = df.fit_exp_profile(accumulate_pdf(ys, BinSpec("uniform", 50)))
    assert df.BETA_BOUNDS[0] <= fit.beta <= df.BETA_BOUNDS[1]
    assert fit.at_bound


def test_exp_profile_flags_the_shallow_bound():
    # the model is concave in y for every beta < 0, so a convex profile (3 y^2)
    # is fitted best by its least concave member, at the beta -> 0 end
    ys = np.cbrt(1.0 - RNG(19).random(50_000))
    fit = df.fit_exp_profile(accumulate_pdf(ys, BinSpec("uniform", 50)))
    assert fit.beta == pytest.approx(df.BETA_BOUNDS[1], abs=1e-5)
    assert fit.at_bound


def test_exp_profile_too_few_bins():
    with pytest.raises(df.TooFewBins):
        df.fit_exp_profile(accumulate_pdf([0.5] * 10, BinSpec("uniform", 50)))


def test_exp_profile_fitted_density_nonnegative():
    ys = df.sample_exp_profile(50_000, -12.0, RNG(17))
    fit = df.fit_exp_profile(accumulate_pdf(ys, BinSpec("uniform", 50)))
    grid = np.linspace(1e-9, 1.0, 1001)
    assert np.all(df.exp_profile_pdf(grid, fit.beta) >= 0.0)


# -- the in-house optimizers against scipy ---------------------------------------------
#
# `_nelder_mead` and `_gamma_p` replace scipy's bounded Nelder-Mead and
# `gammainc` inside `fit`. The one optimizer serves all three body laws, the
# two-parameter log-normal and gamma and the one-parameter exponential
# profile; it must take scipy's steps exactly, so the fits come out bit for
# bit the same.

NM_OPTIONS = {"xatol": df._XATOL, "fatol": 1e-12, "maxiter": df._NM_MAXFEV,
              "maxfev": df._NM_MAXFEV}


def _sse(pdf, density_fn, mass_fn):
    """The objective `_sse` scores, one candidate at a time, built from the public densities."""
    centers, density = pdf.centers(), np.asarray(pdf.density, float)

    def sse(params) -> float:
        if not mass_fn(*params) > 1e-300:
            return 1e300
        diff = density_fn(centers, *params) - density
        return float(diff @ diff)

    return sse


def _lognormal_pdf(n, mu, sigma, seed):
    draws = df.sample_trunc_lognormal(n, mu, sigma, RNG(seed))
    return accumulate_pdf(draws, BinSpec("uniform", 50))


def _uniform_pdf():
    return accumulate_pdf(1.0 - RNG(16).random(30_000), BinSpec("uniform", 50))


def _scipy_nm(sse, x0, bounds, **options):
    return optimize.minimize(sse, np.asarray(x0, float), method="Nelder-Mead", bounds=bounds,
                             options={**NM_OPTIONS, **options})


@pytest.mark.parametrize(
    "make_pdf, start",
    [
        (lambda: _lognormal_pdf(5000, -2.14, 1.11, 1), None),
        (lambda: _lognormal_pdf(300, -1.0, 0.4, 2), None),
        (lambda: _lognormal_pdf(5000, -2.14, 1.11, 3), (df.MU_BOUNDS[1], df.SIGMA_BOUNDS[0])),
        (lambda: _lognormal_pdf(5000, -2.14, 1.11, 4), (0.0, 1.0)),
        (_uniform_pdf, None),
        (lambda: _lognormal_pdf(5000, -2.14, 1.11, 5), (1.9, 0.06)),
    ],
    ids=["seeded", "small_count", "start_on_bounds", "zero_start", "uniform_pinned",
         "underflow_start"],
)
def test_lognormal_fit_takes_scipys_nelder_mead_steps(make_pdf, start):
    pdf = make_pdf()
    sse = _sse(pdf, df.trunc_lognormal_pdf, df.lognormal_unit_mass)
    bounds = [df.MU_BOUNDS, df.SIGMA_BOUNDS]
    x0 = start if start is not None else min(df._LOGNORMAL_GRID, key=sse)
    ref = _scipy_nm(sse, x0, bounds)
    assert ref.success
    fit = df.fit_lognormal_lsq(pdf, start=start)
    assert (fit.mu, fit.sigma) == tuple(ref.x)
    assert fit.rms == math.sqrt(ref.fun / len(pdf.density))
    x, fun, failure = df._nelder_mead(sse, [float(v) for v in x0], bounds, df._XATOL, 1e-12,
                                      df._NM_MAXFEV)
    assert (x, fun, failure) == (list(ref.x), ref.fun, None)


def test_the_nelder_mead_cases_reach_their_corners():
    # the parametrized cases above cover what they say they cover
    assert df.fit_lognormal_lsq(_uniform_pdf()).mu == df.MU_BOUNDS[1]
    assert df.lognormal_unit_mass(1.9, 0.06) <= 1e-300


@pytest.mark.parametrize("make_pdf", [lambda: _lognormal_pdf(5000, -2.14, 1.11, 6), _uniform_pdf],
                         ids=["seeded", "uniform"])
def test_gamma_fit_takes_scipys_nelder_mead_steps(make_pdf):
    pdf = make_pdf()
    sse = _sse(pdf, df.trunc_gamma_pdf, df.gamma_unit_mass)
    bounds = [df.GAMMA_SHAPE_BOUNDS, df.GAMMA_SCALE_BOUNDS]
    x0 = [float(v) for v in min(df._GAMMA_GRID, key=sse)]
    ref = _scipy_nm(sse, x0, bounds)
    assert ref.success
    assert df._nelder_mead(sse, x0, bounds, df._XATOL, 1e-12, df._NM_MAXFEV) == (
        list(ref.x), ref.fun, None)


def test_nelder_mead_out_of_evaluations_matches_scipy(monkeypatch):
    # every budget from inside the first simplex to well into the search, so
    # the budget runs out at each kind of step, in the middle of shrinks too
    pdf = _lognormal_pdf(5000, -2.14, 1.11, 7)
    sse = _sse(pdf, df.trunc_lognormal_pdf, df.lognormal_unit_mass)
    bounds = [df.MU_BOUNDS, df.SIGMA_BOUNDS]
    for maxfev in range(2, 80):
        ref = _scipy_nm(sse, (0.0, 1.0), bounds, maxiter=maxfev, maxfev=maxfev)
        assert not ref.success
        assert df._nelder_mead(sse, [0.0, 1.0], bounds, df._XATOL, 1e-12, maxfev) == (
            list(ref.x), ref.fun, ref.message)
    monkeypatch.setattr(df, "_NM_MAXFEV", 40)
    with pytest.raises(df.OptimizerDidNotConverge) as info:
        df.fit_lognormal_lsq(pdf, start=(0.0, 1.0))
    assert str(info.value) == f"log-normal fit did not converge: {ref.message}"


def _exp_pdf():
    return accumulate_pdf(df.sample_exp_profile(20_000, -25.0, RNG(8)), BinSpec("uniform", 50))


@pytest.mark.parametrize(
    "make_pdf, beta_end",
    [
        (_exp_pdf, None),
        (_uniform_pdf, df.BETA_BOUNDS[0]),
        (lambda: accumulate_pdf(np.cbrt(1.0 - RNG(19).random(50_000)), BinSpec("uniform", 50)),
         df.BETA_BOUNDS[1]),
    ],
    ids=["seeded", "uniform_steep_end", "convex_shallow_end"],
)
def test_exp_fit_takes_scipys_nelder_mead_steps(make_pdf, beta_end):
    pdf = make_pdf()
    sse = _sse(pdf, df.exp_profile_pdf, df.exp_profile_norm)
    x0 = [float(v) for v in min(df._EXP_GRID, key=sse)]
    ref = _scipy_nm(sse, x0, [df.BETA_BOUNDS])
    assert ref.success
    fit = df.fit_exp_profile(pdf)
    assert fit.beta == ref.x[0] and fit.rms == math.sqrt(ref.fun / len(pdf.density))
    assert fit.at_bound == (beta_end is not None)
    if beta_end is not None:
        assert fit.beta == beta_end
    # no beta on a fine grid over the box does better than the search
    assert ref.fun <= min(sse([b]) for b in np.linspace(*df.BETA_BOUNDS, 20_001).tolist())


def test_exp_fit_out_of_evaluations_names_the_profile(monkeypatch):
    monkeypatch.setattr(df, "_NM_MAXFEV", 10)
    with pytest.raises(df.OptimizerDidNotConverge) as info:
        df.fit_exp_profile(_exp_pdf())
    assert str(info.value) == ("exponential profile fit did not converge: "
                               "Maximum number of function evaluations has been exceeded.")


def test_gamma_p_matches_scipy_over_the_fit_box():
    from scipy.special import gammainc

    worst = 0.0
    for a in np.geomspace(*df.GAMMA_SHAPE_BOUNDS, 60):
        for scale in np.geomspace(*df.GAMMA_SCALE_BOUNDS, 60):
            ref = gammainc(a, 1.0 / scale)
            worst = max(worst, abs(df._gamma_p(float(a), float(1.0 / scale)) - ref) / ref)
    assert worst < 1e-13


# -- the bootstrap's bin masses -----------------------------------------------------


@pytest.mark.parametrize("mu,sigma", [(-2.14, 1.11), (-6.0, 0.05), (2.0, 0.3), (-0.5, 4.0)])
def test_bootstrap_bin_masses_are_the_truncated_lognormal_cdf_steps(mu, sigma):
    edges = np.linspace(0.0, 1.0, 51)
    masses = df._trunc_lognormal_bin_masses(edges, mu, sigma)
    law = stats.lognorm(sigma, scale=math.exp(mu))
    unit = law.cdf(1.0)
    ref = np.diff(law.cdf(edges)) / unit
    assert sum(masses) == pytest.approx(1.0, abs=1e-12)
    assert all(m >= 0.0 for m in masses)
    big = ref > 1e-300
    assert np.allclose(np.asarray(masses)[big], ref[big], rtol=1e-9, atol=0.0)


def test_bootstrap_bin_masses_keep_upper_tail_mass():
    # at mu = -6, sigma = 0.5 the bins above 0.2 lie more than 8.8 sigma
    # above the median: 1 - CDF differences would cancel to 0 there
    masses = df._trunc_lognormal_bin_masses(np.linspace(0.0, 1.0, 51), -6.0, 0.5)
    ref = stats.lognorm(0.5, scale=math.exp(-6.0)).sf
    assert masses[10] > 0.0 and masses[10] == pytest.approx(ref(0.2) - ref(0.22), rel=1e-9)


def test_bootstrap_drops_mass_outside_the_edges():
    # edges that cover only (0, 0.5]: the draws beyond it leave the density
    masses = df._trunc_lognormal_bin_masses(np.linspace(0.0, 0.5, 26), -2.14, 1.11)
    law = stats.lognorm(1.11, scale=math.exp(-2.14))
    assert sum(masses) == pytest.approx(law.cdf(0.5) / law.cdf(1.0), rel=1e-12)



def _terraced_bowls(count: int):
    """Seeded bowls over the log-normal box, rounded to steps of 0.2, with starts.

    The rounding makes exact ties between trial points common, so the
    comparisons that differ only on a tie (``<`` against ``<=``) are taken.
    Called with x alone, a bowl is its section at y = 0.
    """
    rnd = random.Random(1)
    for _ in range(count):
        cx, cy = rnd.uniform(-6.0, 2.0), rnd.uniform(0.05, 4.0)
        x0 = [rnd.uniform(-6.0, 2.0), rnd.uniform(0.05, 4.0)]

        def bowl(x, y=0.0, cx=cx, cy=cy):
            return round(((x - cx) ** 2 + 3 * (y - cy) ** 2) / 0.2) * 0.2

        yield bowl, x0


def _check_ties(dims: int):
    for bowl, x0 in _terraced_bowls(100):
        bounds, x0 = [df.MU_BOUNDS, df.SIGMA_BOUNDS][:dims], x0[:dims]
        sse = lambda v, bowl=bowl: bowl(*v)
        for maxfev in (df._NM_MAXFEV, 2, 9, 33):
            ref = _scipy_nm(sse, x0, bounds, maxiter=maxfev, maxfev=maxfev)
            assert df._nelder_mead(sse, x0, bounds, df._XATOL, 1e-12, maxfev) == (
                list(ref.x), ref.fun, None if ref.success else ref.message)


def test_nelder_mead_breaks_ties_as_scipy_does():
    _check_ties(2)


def test_nelder_mead_breaks_one_parameter_ties_as_scipy_does():
    # each bowl's section at y = 0: one parameter, as the exponential profile's beta
    _check_ties(1)


# -- the lockstep batch against one problem at a time ------------------------------
#
# `fit` runs every entry's search, and every bootstrap refit, as rows of one
# `_nelder_mead_batch`. Each row must take the steps it takes alone, and so
# scipy's, to the last bit.


def test_a_batch_of_bowls_takes_each_bowls_own_steps():
    bowls = list(_terraced_bowls(100))
    stopped = {}
    for dims in (1, 2):
        bounds = [df.MU_BOUNDS, df.SIGMA_BOUNDS][:dims]

        def values(ids, points):
            return np.array([bowls[i][0](*p) for i, p in zip(ids.tolist(), points.tolist())])

        x0 = [x0[:dims] for _, x0 in bowls]
        for maxfev in (2, 9, 33, df._NM_MAXFEV):
            x, f, converged = df._nelder_mead_batch(values, x0, bounds, df._XATOL, 1e-12, maxfev)
            for k, (bowl, start) in enumerate(bowls):
                sse = lambda v, bowl=bowl: bowl(*v)
                alone = df._nelder_mead(sse, start[:dims], bounds, df._XATOL, 1e-12, maxfev)
                ref = _scipy_nm(sse, start[:dims], bounds, maxiter=maxfev, maxfev=maxfev)
                got = (x[k].tolist(), float(f[k]), None if converged[k] else df._NM_FAILURE)
                assert got == alone == (list(ref.x), ref.fun,
                                        None if ref.success else ref.message)
            stopped[dims, maxfev] = int((~converged).sum())
    # at 33 evaluations some rows converge while the others of their batch run on
    assert 0 < stopped[1, 33] < 100 and 0 < stopped[2, 33] < 100


_SSE_CASES = [
    ("lognormal", df.trunc_lognormal_pdf, df.lognormal_unit_mass),
    ("gamma", df.trunc_gamma_pdf, df.gamma_unit_mass),
    ("exp", df.exp_profile_pdf, df.exp_profile_norm),
]


@pytest.mark.parametrize("law, pdf_fn, mass_fn", _SSE_CASES, ids=[c[0] for c in _SSE_CASES])
def test_batch_sse_rows_equal_the_public_density_sse(law, pdf_fn, mass_fn):
    # numpy's exp, log and dot on a stack of rows against one row at a time:
    # equal to the last bit, grid points and the mass-underflow corner included
    law = df.BODY_LAWS[law]
    pdfs = [_lognormal_pdf(5000, -2.14, 1.11, 11), _uniform_pdf(), _exp_pdf()]
    lo, hi = np.array(law.bounds).T
    params = np.concatenate([law.grid, lo + (hi - lo) * RNG(12).random((300, lo.size)),
                             [hi, lo, [1.9, 0.06][:lo.size]]])
    for pdf in pdfs:
        sse = _sse(pdf, pdf_fn, mass_fn)
        density = np.tile(pdf.density, (params.shape[0], 1))
        got = df._sse(law, pdf.centers(), density)(np.arange(params.shape[0]), params)
        want = np.array([sse(p) for p in params.tolist()])
        assert np.array_equal(got, want)
    if law.name == "log-normal":
        assert (want == 1e300).any()


def test_stacked_matmul_is_numpys_row_dot():
    rng = RNG(13)
    for k in (1, 7, 31, 50, 64, 101):
        rows = rng.normal(size=(200, k)) * 10.0 ** rng.integers(-200, 150, (200, 1))
        rows[0, 0], rows[1, :] = np.inf, 0.0
        stacked = np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]
        alone = [float(r.copy() @ r.copy()) for r in rows]
        assert stacked.tolist() == alone == [float(rows[i] @ rows[i]) for i in range(len(rows))]


_SINGLE_FITTERS = {"lognormal": df.fit_lognormal_lsq, "gamma": df.fit_gamma_lsq,
                   "exp": df.fit_exp_profile}


@pytest.mark.parametrize("law", sorted(_SINGLE_FITTERS))
def test_a_batch_equals_fitting_each_density_alone(law):
    # the grid's model densities are built once per bin layout and shared by
    # every density on it; each result must still be the single fitter's
    fine = [_lognormal_pdf(400 + 300 * k, -2.5 + 0.2 * k, 0.4 + 0.1 * k, 40 + k)
            for k in range(df._BATCH // len(df.BODY_LAWS["exp"].grid) + 3)]
    coarse = [accumulate_pdf(df.sample_exp_profile(5_000, -5.0 - 10 * k, RNG(50 + k)),
                             BinSpec("uniform", 20)) for k in range(3)]
    too_few = accumulate_pdf(np.full(100, 0.55), BinSpec("uniform", 50))
    pdfs = [fine[0], coarse[0], _corner_pdf(), too_few, *fine[1:], *coarse[1:], _uniform_pdf()]
    assert len({pdf.bin_edges.tobytes() for pdf in pdfs}) == 3
    got = df.fit_batch(law, pdfs)
    for pdf, result in zip(pdfs, got):
        try:
            want = _SINGLE_FITTERS[law](pdf)
        except df.FitError as exc:
            assert type(result) is type(exc)
        else:
            assert type(result) is type(want) and result == want
    assert isinstance(got[3], df.TooFewBins)


def _corner_pdf():
    # a density near 1 whose draws often leave fewer than MIN_FIT_BINS bins,
    # and whose refits start where the (0, 1] mass underflows
    edges = np.linspace(0.9, 1.0, 51)
    masses = df._trunc_lognormal_bin_masses(edges, 1.8, 0.08) + [0.0]
    return pdf_from_counts(RNG(14).multinomial(400, masses)[:-1], edges, "unit_interval")


def _serial_gof(pdf, fit, repeats, seed):
    """The bootstrap one refit at a time, through the public fitter.

    Returns the p-value, and each draw's density and refit (or the type of
    the FitError that stopped it).
    """
    edges = np.asarray(pdf.bin_edges, float)
    masses = df._trunc_lognormal_bin_masses(edges, fit.mu, fit.sigma) + [0.0]
    hits, draws = 0, []
    for rep in range(repeats):
        rng = np.random.default_rng([seed, rep])
        synth = pdf_from_counts(rng.multinomial(pdf.count, masses)[:-1], edges, pdf.domain)
        try:
            refit = df.fit_lognormal_lsq(synth, start=(fit.mu, fit.sigma))
        except df.FitError as exc:
            hits += 1
            draws.append((synth, type(exc)))
            continue
        draws.append((synth, refit))
        hits += refit.rms >= fit.rms
    return hits / repeats, draws


@pytest.mark.parametrize("maxfev", [df._NM_MAXFEV, 100])
def test_batched_gof_equals_a_serial_loop(monkeypatch, maxfev):
    small = _lognormal_pdf(60, -1.5, 0.6, 15)  # about 14 non-empty bins of 50
    jobs = [
        (_lognormal_pdf(3000, -2.14, 1.11, 16), None, 3),
        (small, None, 4),
        (_corner_pdf(), df.LogNormalFit(1.8, 0.08, df.lognormal_unit_mass(1.8, 0.08), 0.5, False), 5),
        (_lognormal_pdf(800, -1.0, 0.5, 17), None, 6),
    ]
    jobs = [(pdf, fit or df.fit_lognormal_lsq(pdf), seed) for pdf, fit, seed in jobs]
    monkeypatch.setattr(df, "_NM_MAXFEV", maxfev)
    monkeypatch.setattr(df, "_BATCH", 64)  # batches span jobs, and jobs span batches
    repeats = 40
    underflows = []
    sse = df._sse

    def spy(law, centers, density):
        fun = sse(law, centers, density)

        def scored(ids, params):
            values = fun(ids, params)
            underflows.append(int((values == 1e300).sum()))
            return values

        return scored

    calls = []  # each _fit_law call of the bootstrap: its law, densities, starts and results
    fit_law = df._fit_law

    def fit_law_spy(law, pdfs, starts=None):
        results = fit_law(law, pdfs, starts)
        calls.append((law, pdfs, starts, results))
        return results

    monkeypatch.setattr(df, "_sse", spy)
    monkeypatch.setattr(df, "_fit_law", fit_law_spy)
    bootstrap = df.gof_pvalues(jobs, repeats)
    monkeypatch.setattr(df, "_fit_law", fit_law)
    assert sum(underflows) > 0
    assert [len(pdfs) for _, pdfs, _, _ in calls] == [64, 64, 32]
    assert all(law is df.BODY_LAWS["lognormal"] for law, _, _, _ in calls)
    got = [draw for _, *batch in calls for draw in zip(*batch)]  # (pdf, start, result), in order
    kinds = set()
    for j, (pdf, fit, seed) in enumerate(jobs):
        p_value, draws = _serial_gof(pdf, fit, repeats, seed)
        assert bootstrap[j][0] == p_value == df.gof_pvalue_mc(pdf, fit, repeats, seed)
        assert bootstrap[j][1] == sum(isinstance(r, type) for _, r in draws)  # refits that raised
        for rep, (synth, refit) in enumerate(draws):
            drawn, start, result = got[j * repeats + rep]
            assert drawn.density.tobytes() == synth.density.tobytes()
            assert (drawn.count, drawn.domain) == (synth.count, synth.domain)
            assert drawn.bin_edges.tobytes() == synth.bin_edges.tobytes()
            assert start == (fit.mu, fit.sigma)
            if isinstance(refit, type):
                assert type(result) is refit
            else:
                assert type(result) is df.LogNormalFit and result == refit
            kinds.add(refit if isinstance(refit, type) else type(refit))
    assert df.TooFewBins in kinds and df.LogNormalFit in kinds
    assert (df.OptimizerDidNotConverge in kinds) == (maxfev == 100)


def test_gof_memory_does_not_grow_with_repeats():
    import tracemalloc

    pdf = _lognormal_pdf(2000, -2.14, 1.11, 18)
    fit = df.fit_lognormal_lsq(pdf)
    peaks = []
    for repeats in (df._BATCH, 3 * df._BATCH):
        tracemalloc.start()
        try:
            df.gof_pvalue_mc(pdf, fit, repeats, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a batch holds a few arrays of _BATCH x 50 floats, 0.1 MB each at 256;
    # the two peaks read 0.82 and 0.83 MB there
    assert max(peaks) < 12 * df._BATCH * len(pdf.density) * 8
    assert peaks[1] < 1.1 * peaks[0]
