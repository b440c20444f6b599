"""Parametric fits for the cancellation position densities.

Three model families, each with its own estimator:

* log-normal restricted to (0, 1], fitted to a binned density by unweighted
  least squares at bin centers, with a parametric-bootstrap goodness-of-fit
  p-value;
* power-law right tail, threshold chosen by minimizing the Kolmogorov-Smirnov
  distance over candidate thresholds and the exponent set by closed-form
  maximum likelihood on the surviving tail; the scan prunes candidates by a
  strided lower bound on their distance, exactly, so it returns the full
  scan's fit after a few full-tail passes instead of one per candidate;
* saturating-exponential queue profile (1 - e^(beta*y)) / norm on (0, 1],
  fitted by the same bounded least squares as the log-normal.

A gamma alternative restricted to (0, 1] shares the least-squares machinery
so the two body fits can be compared by their rms values. All three body
laws run one path: a start-grid scan, then a bounded Nelder-Mead search.

All fitters are pure functions of (data, config, seed); repeated runs with
the same inputs return bit-identical results. The module needs numpy only:
the bounded Nelder-Mead search takes scipy 1.17's steps exactly,
the gamma CDF is in-house, and the log-normal sampler inverts the normal CDF
with the standard library's ``statistics.NormalDist``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .profiles import EmpiricalPdf, pdf_from_counts


class FitError(Exception):
    pass


class TooFewBins(FitError):
    pass


class TooFewSamples(FitError):
    pass


class TailTooSmall(FitError):
    pass


class OptimizerDidNotConverge(FitError):
    pass


MU_BOUNDS = (-6.0, 2.0)
SIGMA_BOUNDS = (0.05, 4.0)
BETA_BOUNDS = (-100.0, -0.01)
GAMMA_SHAPE_BOUNDS = (0.02, 50.0)
GAMMA_SCALE_BOUNDS = (1e-3, 20.0)
MIN_FIT_BINS = 10
MIN_TAIL_SIZE = 50
MAX_TAIL_CANDIDATES = 500
_KS_STRIDE = 32  # fit_powerlaw_tail bounds each candidate's KS distance on every 32nd tail point
EXP_SAMPLE_GRID = 4096  # points of sample_exp_profile's tabulated inverse CDF
_XATOL = 1e-7  # Nelder-Mead refinement tolerance in parameter space
_NM_MAXFEV = 4000  # Nelder-Mead's limit on both iterations and evaluations


@dataclass(frozen=True)
class LogNormalFit:
    mu: float
    sigma: float
    unit_mass: float          # mass of lognormal(mu, sigma) on (0, 1]
    rms: float                # rms of (fit - empirical density) over bins
    at_bound: bool            # a parameter stopped within the tolerance of its box


@dataclass(frozen=True)
class GammaFit:
    shape: float
    scale: float
    unit_mass: float
    rms: float
    at_bound: bool


@dataclass(frozen=True)
class PowerLawFit:
    alpha: float              # tail exponent, > 1
    xmin: float               # threshold minimizing the KS distance
    tail_size: int            # samples strictly above xmin
    stderr: float             # (alpha - 1) / sqrt(tail_size)
    ks: float                 # minimized KS distance


@dataclass(frozen=True)
class ExpProfileFit:
    beta: float               # negative rate of the saturating exponential
    norm: float               # integral of (1 - e^(beta*y)) over (0, 1]
    rms: float
    at_bound: bool


# -- model densities -----------------------------------------------------------


def lognormal_unit_mass(mu: float, sigma: float) -> float:
    """Probability a lognormal(mu, sigma) variate falls in (0, 1]."""
    return 0.5 * (1.0 + math.erf(-mu / (sigma * math.sqrt(2.0))))


def trunc_lognormal_pdf(x, mu: float, sigma: float) -> np.ndarray:
    """Log-normal density renormalized to integrate to one over (0, 1]."""
    return _lognormal_pdf_over(x, mu, sigma, lognormal_unit_mass(mu, sigma))


def _lognormal_pdf_over(x, mu: float, sigma: float, mass: float) -> np.ndarray:
    """The log-normal density divided by ``mass``, its (0, 1] mass when truncated."""
    x = np.asarray(x, float)
    out = np.exp(-((np.log(x) - mu) ** 2) / (2.0 * sigma**2))
    out /= math.sqrt(2.0 * math.pi) * sigma * x * mass
    return out


def _gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x), for a, x > 0.

    The power series below x = a + 1; above it, Lentz's continued fraction
    for 1 - P (Numerical Recipes, 3rd ed., 6.2), whose denominators stay
    above 3 there (checked for a in [1e-3, 1e3], x <= 1e4): no zero guard.
    """
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a  # the series' running denominator a + k
        while abs(term) > abs(total) * 1e-17:
            n += 1.0
            term *= x / n
            total += term
        return total * front
    b = x + 1.0 - a
    c, d, h, i, delta = 1e300, 1.0 / b, 1.0 / b, 0, 0.0
    while abs(delta - 1.0) > 2.2e-16:
        i += 1
        an, b = -i * (i - a), b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
    return 1.0 - front * h


def gamma_unit_mass(shape: float, scale: float) -> float:
    return _gamma_p(shape, 1.0 / scale)


def trunc_gamma_pdf(x, shape: float, scale: float) -> np.ndarray:
    """Gamma density renormalized to integrate to one over (0, 1]."""
    return _gamma_pdf_over(x, shape, scale, gamma_unit_mass(shape, scale))


def _gamma_pdf_over(x, shape: float, scale: float, mass: float) -> np.ndarray:
    """The gamma density divided by ``mass``, its (0, 1] mass when truncated."""
    x = np.asarray(x, float)
    log_pdf = (shape - 1.0) * np.log(x) - x / scale - math.lgamma(shape) - shape * math.log(scale)
    return np.exp(log_pdf) / mass


def exp_profile_norm(beta: float) -> float:
    """Closed form of the saturating-exponential normalizer on (0, 1].

    Equals 1 - (e^beta - 1)/beta; the removable singularity at beta = 0 is
    handled by its series so the function is smooth through zero.
    """
    if abs(beta) < 1e-6:
        return -beta / 2.0 - beta**2 / 6.0 - beta**3 / 24.0
    return 1.0 - (math.exp(beta) - 1.0) / beta


def exp_profile_pdf(y, beta: float) -> np.ndarray:
    return _exp_pdf_over(y, beta, exp_profile_norm(beta))


def _exp_pdf_over(y, beta: float, norm: float) -> np.ndarray:
    """The saturating exponential 1 - e^(beta*y) divided by ``norm``, its (0, 1] mass."""
    y = np.asarray(y, float)
    return (1.0 - np.exp(beta * y)) / norm


# -- samplers --------------------------------------------------------------------


def sample_trunc_lognormal(n: int, mu: float, sigma: float, rng) -> np.ndarray:
    """Inverse-CDF draws from the log-normal restricted to (0, 1]."""
    from statistics import NormalDist  # it loads fractions and decimal, which `fit` never needs

    u = 1.0 - rng.random(n)  # (0, 1], so no draw maps to 0
    quantile = NormalDist(mu, sigma).inv_cdf  # Wichura's AS 241
    return np.exp([quantile(p) for p in (u * lognormal_unit_mass(mu, sigma)).tolist()])


def sample_pareto(n: int, alpha: float, xmin: float, rng) -> np.ndarray:
    """Inverse-CDF draws from a Pareto density ~ x^-alpha on [xmin, inf)."""
    u = 1.0 - rng.random(n)
    return xmin * u ** (-1.0 / (alpha - 1.0))


def sample_exp_profile(n: int, beta: float, rng) -> np.ndarray:
    """Draws from (1 - e^(beta*y))/norm on (0, 1] via a tabulated inverse CDF."""
    y = np.linspace(0.0, 1.0, EXP_SAMPLE_GRID + 1)
    cdf = (y - (np.exp(beta * y) - 1.0) / beta) / exp_profile_norm(beta)
    cdf[0] = 0.0
    cdf[-1] = 1.0
    u = 1.0 - rng.random(n)
    return np.interp(u, cdf, y)


# -- least-squares body fits --------------------------------------------------


def _require_bins(pdf: EmpiricalPdf) -> tuple[np.ndarray, np.ndarray]:
    if pdf.nonempty_bins() < MIN_FIT_BINS:
        raise TooFewBins(f"need >= {MIN_FIT_BINS} non-empty bins, got {pdf.nonempty_bins()}")
    return pdf.centers(), np.asarray(pdf.density, float)


def _at_bound(params, bounds, tol: float) -> bool:
    """True when any parameter lies within ``tol`` of either end of its box."""
    return any(x - lo <= tol or hi - x <= tol for x, (lo, hi) in zip(params, bounds))


def _nelder_mead(fun, x0, bounds, xatol: float, fatol: float, maxfev: int):
    """Bounded Nelder-Mead on Python floats, step for step as scipy 1.17's ``minimize``.

    ``maxfev`` also bounds scipy's iterations, but the evaluations run out
    first. Returns the best vertex, its value, and None or why it stopped.
    """
    lo, hi = zip(*bounds)
    n, nfev = len(x0), 0

    def clip(v):
        return [min(max(x, l), h) for x, l, h in zip(v, lo, hi)]

    def point(v) -> tuple[float, list]:  # (value, vertex): one evaluation
        nonlocal nfev
        if nfev >= maxfev:
            raise OptimizerDidNotConverge  # the evaluations ran out; caught below
        nfev += 1
        return fun(v), v

    def move(xbar, cb: float, cw: float):  # cb * centroid + cw * worst vertex
        return point(clip([cb * b + cw * w for b, w in zip(xbar, pts[-1][1])]))

    x0 = clip(x0)
    sim = [x0] + [[x if j != k else 1.05 * x if x != 0 else 0.00025 for j, x in enumerate(x0)]
                  for k in range(n)]
    # a vertex stepped past its upper bound is reflected back inside, then clipped
    pts = [(math.inf, clip([2 * h - x if x > h else x for x, h in zip(v, hi)])) for v in sim]
    try:
        for k, (_, v) in enumerate(pts):
            pts[k] = point(v)
        pts.sort(key=itemgetter(0))  # stable: ties keep their order, as under numpy
        while nfev < maxfev:
            (fbest, best), rest = pts[0], pts[1:]
            if (all(abs(x - b) <= xatol for _, v in rest for x, b in zip(v, best))
                    and all(abs(fbest - fv) <= fatol for fv, _ in rest)):
                return best, fbest, None
            xbar = [sum(c) / n for c in zip(*(v for _, v in pts[:-1]))]
            r = move(xbar, 2.0, -1.0)
            if r[0] < fbest:
                e = move(xbar, 3.0, -2.0)
                pts[-1] = e if e[0] < r[0] else r
            elif r[0] < pts[-2][0]:
                pts[-1] = r
            else:
                outside = r[0] < pts[-1][0]
                c = move(xbar, 1.5, -0.5) if outside else move(xbar, 0.5, 0.5)
                if c[0] <= r[0] if outside else c[0] < pts[-1][0]:
                    pts[-1] = c
                else:  # shrink toward the best vertex
                    for j in range(1, n + 1):
                        pts[j] = point(clip([b + 0.5 * (x - b) for x, b in zip(pts[j][1], best)]))
            pts.sort(key=itemgetter(0))
    except OptimizerDidNotConverge:
        pts.sort(key=itemgetter(0))
    return pts[0][1], pts[0][0], "Maximum number of function evaluations has been exceeded."


def _fit_truncated(
    pdf: EmpiricalPdf, density_fn, mass_fn, grid, bounds, start, name: str
) -> tuple[tuple[float, ...], float, bool]:
    """Bounded least-squares fit of a density truncated to (0, 1] at bin centers.

    The sum of squared differences computes each candidate's (0, 1] mass
    once with ``mass_fn`` and hands it to ``density_fn(centers, *params,
    mass)``, the density divided by that mass: bit for bit the public
    ``trunc_*_pdf``. Parameters whose mass underflows score 1e300. The
    start is ``start`` when given, else the first grid point of least SSE,
    and bounded Nelder-Mead refines it. Returns the parameters, the rms and
    whether a parameter stopped on its box (within ``_XATOL``).
    """
    centers, density = _require_bins(pdf)

    def sse(params) -> float:
        mass = mass_fn(*params)
        if not mass > 1e-300:
            return 1e300
        diff = density_fn(centers, *params, mass) - density
        return float(diff @ diff)

    x0 = start if start is not None else min(grid, key=sse)
    x, fun, failure = _nelder_mead(sse, [float(v) for v in x0], bounds, _XATOL, 1e-12, _NM_MAXFEV)
    if failure:
        raise OptimizerDidNotConverge(f"{name} fit did not converge: {failure}")
    params = tuple(x)
    return params, math.sqrt(fun / len(density)), _at_bound(params, bounds, _XATOL)


# Start grids, scanned in this order (the first point of least SSE wins).
_LOGNORMAL_GRID = tuple(
    (mu, sigma)
    for sigma in np.linspace(SIGMA_BOUNDS[0], SIGMA_BOUNDS[1], 16)
    for mu in np.linspace(MU_BOUNDS[0], MU_BOUNDS[1], 17)
)
_GAMMA_GRID = tuple(
    (shape, scale)
    for shape in np.geomspace(GAMMA_SHAPE_BOUNDS[0], GAMMA_SHAPE_BOUNDS[1], 14)
    for scale in np.geomspace(GAMMA_SCALE_BOUNDS[0], GAMMA_SCALE_BOUNDS[1], 14)
)
# Interior points only: a start on the box edge steps off it and is clipped
# back, which leaves a flat one-dimensional simplex.
_EXP_GRID = tuple((beta,) for beta in np.linspace(BETA_BOUNDS[0], BETA_BOUNDS[1], 34)[1:-1])


def fit_lognormal_lsq(pdf: EmpiricalPdf, *, start=None) -> LogNormalFit:
    """Least-squares truncated log-normal fit to a binned density on (0, 1].

    Minimizes the sum of squared differences between the model density at bin
    centers and the empirical density, with the truncation normalizer
    recomputed for every candidate parameter pair. The search is a coarse
    grid (skipped when ``start`` is given) refined by bounded Nelder-Mead.
    """
    (mu, sigma), rms, at_bound = _fit_truncated(
        pdf, _lognormal_pdf_over, lognormal_unit_mass, _LOGNORMAL_GRID,
        [MU_BOUNDS, SIGMA_BOUNDS], start, "log-normal",
    )
    return LogNormalFit(mu, sigma, lognormal_unit_mass(mu, sigma), rms, at_bound)


def fit_gamma_lsq(pdf: EmpiricalPdf) -> GammaFit:
    """Least-squares truncated gamma fit; comparison partner for the log-normal."""
    (shape, scale), rms, at_bound = _fit_truncated(
        pdf, _gamma_pdf_over, gamma_unit_mass, _GAMMA_GRID,
        [GAMMA_SHAPE_BOUNDS, GAMMA_SCALE_BOUNDS], None, "gamma",
    )
    return GammaFit(shape, scale, gamma_unit_mass(shape, scale), rms, at_bound)


def fit_exp_profile(pdf: EmpiricalPdf) -> ExpProfileFit:
    """Bounded least-squares fit of (1 - e^(beta*y))/norm to a binned density.

    beta is searched over [-100, -0.01] by the same grid and Nelder-Mead
    path as the other body laws; the upper bound keeps the fitter away from
    the degenerate beta -> 0 limit where the shape loses all mass.
    """
    (beta,), rms, at_bound = _fit_truncated(
        pdf, _exp_pdf_over, exp_profile_norm, _EXP_GRID, [BETA_BOUNDS], None,
        "exponential profile",
    )
    return ExpProfileFit(beta, exp_profile_norm(beta), rms, at_bound)


# -- power-law tail -----------------------------------------------------------


def pareto_alpha_mle(tail: np.ndarray, xmin: float) -> float:
    """Closed-form maximum-likelihood exponent for samples above xmin."""
    tail = np.asarray(tail, float)
    return 1.0 + tail.size / float(np.sum(np.log(tail / xmin)))


def _ks_distance(xs: np.ndarray, i: int, xmin: float, alpha: float, stride: int = 1) -> float:
    """KS distance between the sorted tail ``xs[i:]`` and the fitted power law.

    The empirical CDF is rank/m, evaluated at the tail points only. With
    ``stride`` > 1 only every ``stride``-th tail point is compared, so the
    result is a lower bound on the distance.
    """
    m = xs.size - i
    model = 1.0 - (xmin / xs[i::stride]) ** (alpha - 1.0)
    return float(np.max(np.abs(np.arange(1, m + 1, stride) / m - model)))


def pareto_ks(tail: np.ndarray, xmin: float, alpha: float) -> float:
    """KS distance between the tail's empirical CDF and the fitted power law.

    The empirical CDF is rank/m evaluated at the sorted tail points only.
    """
    return _ks_distance(np.sort(np.asarray(tail, float)), 0, xmin, alpha)


def fit_powerlaw_tail(samples) -> PowerLawFit:
    """Power-law tail fit with KS-scanned threshold and MLE exponent.

    Candidate thresholds are the unique sample values whose strict tail keeps
    at least ``MIN_TAIL_SIZE`` points; when more than ``MAX_TAIL_CANDIDATES``
    qualify the scan is thinned evenly by rank (keeping both extremes). For
    each candidate the exponent comes from the closed-form MLE over the tail
    and the candidate minimizing the KS distance wins; among equal distances
    the smallest threshold does.

    The scan is exact but pruned. The distance over every ``_KS_STRIDE``-th
    tail point bounds each candidate's distance from below, at 1/32 of the
    cost of a full pass. Candidates are then visited in ascending order of bound, and
    the full distance is computed only while a bound can still beat the best
    distance found (a 1e-12 slack absorbs last-bit differences between
    numpy's strided and contiguous loops). Where a scan of k candidates over
    n samples cost O(k * n), it costs O(k * n / 32) plus a few full passes.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n < 100:
        raise TooFewSamples(f"need >= 100 samples, got {n}")
    if not np.isfinite(xs).all():
        raise ValueError("samples must be finite")
    if np.any(xs <= 0.0):
        raise ValueError("samples must be positive")
    uniq = np.unique(xs)
    tail_sizes = n - np.searchsorted(xs, uniq, side="right")
    candidates = uniq[tail_sizes >= MIN_TAIL_SIZE]
    if candidates.size == 0:
        raise TailTooSmall(f"no threshold leaves >= {MIN_TAIL_SIZE} tail points")
    if candidates.size > MAX_TAIL_CANDIDATES:
        keep = np.unique(np.round(np.linspace(0, candidates.size - 1, MAX_TAIL_CANDIDATES)).astype(int))
        candidates = candidates[keep]

    log_xs = np.log(xs)
    suffix_log = np.concatenate((np.cumsum(log_xs[::-1])[::-1], [0.0]))
    scan = []  # (xmin, alpha, first tail index), in ascending xmin
    for xmin, i in zip(candidates.tolist(), np.searchsorted(xs, candidates, side="right").tolist()):
        m = n - i
        scan.append((xmin, float(1.0 + m / (suffix_log[i] - m * math.log(xmin))), i))
    bounds = [_ks_distance(xs, i, xmin, alpha, _KS_STRIDE) for xmin, alpha, i in scan]

    best_ks, best = math.inf, len(scan)
    for j in sorted(range(len(scan)), key=bounds.__getitem__):
        if bounds[j] > best_ks + 1e-12:
            break  # every later bound is larger still
        xmin, alpha, i = scan[j]
        ks = _ks_distance(xs, i, xmin, alpha)
        if ks < best_ks or (ks == best_ks and j < best):
            best_ks, best = ks, j
    xmin, alpha, i = scan[best]
    m = n - i
    return PowerLawFit(alpha, xmin, m, (alpha - 1.0) / math.sqrt(m), best_ks)


# -- Monte Carlo goodness of fit ------------------------------------------------


def _trunc_lognormal_bin_masses(edges, mu: float, sigma: float) -> list[float]:
    """Probability of each bin of ``edges`` under the log-normal restricted to (0, 1].

    Differences of the normal CDF at the standardized log edges, taken on
    the upper tail above the median so that no far-tail mass cancels to 0.
    """
    s = sigma * math.sqrt(2.0)
    zs = [(math.log(min(e, 1.0)) - mu) / s if e > 0.0 else -math.inf for e in edges.tolist()]
    unit = math.erfc(mu / s)  # twice the mass on (0, 1], as each difference below
    return [(math.erfc(za) - math.erfc(zb) if za >= 0.0 else math.erfc(-zb) - math.erfc(-za))
            / unit for za, zb in zip(zs, zs[1:])]


def gof_pvalue_mc(
    pdf: EmpiricalPdf, fit: LogNormalFit, repeats: int = 1000, seed: int = 0
) -> float:
    """Parametric bootstrap p-value for a truncated log-normal fit.

    Each of ``repeats`` synthetic densities, refitted, bins one multinomial
    draw of the empirical count over the fitted bin masses: a model sample of
    that size, binned. The p-value is the fraction of synthetic rms values at
    or above the empirical rms. Each repeat uses its own derived seed, so
    parallel and serial evaluation orders agree.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    edges = np.asarray(pdf.bin_edges, float)
    # numpy's last category takes what the bins leave of 1: the mass outside the edges
    masses = _trunc_lognormal_bin_masses(edges, fit.mu, fit.sigma) + [0.0]
    start = (fit.mu, fit.sigma)
    hits = 0
    for rep in range(repeats):
        rng = np.random.default_rng([seed, rep])
        synth = pdf_from_counts(rng.multinomial(pdf.count, masses)[:-1], edges, pdf.domain)
        try:
            refit = fit_lognormal_lsq(synth, start=start)
        except FitError:
            hits += 1  # unfittable draw counts as at least as extreme
            continue
        if refit.rms >= fit.rms:
            hits += 1
    return hits / repeats
