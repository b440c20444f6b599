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

That path is batched, and it is the only one. ``fit_batch`` fits one law to
many densities as the rows of one lockstep Nelder-Mead whose simplices live
in arrays; at each step the candidates of every live row are scored by one
numpy pass. ``gof_pvalues`` hands the bootstrap's synthetic densities to the
same path, each search started at its job's fit. A row takes the steps it
would take alone, so the single fitters (``fit_lognormal_lsq``,
``gof_pvalue_mc``, ...) are batches of one and agree with the batch bit for
bit. Batches hold at most ``_BATCH`` problems, so memory does not grow with
the number of densities or repeats.

All fitters are pure functions of (data, config, seed); repeated runs with
the same inputs return bit-identical results. The module needs numpy only:
the bounded Nelder-Mead search takes scipy 1.17's steps exactly,
the gamma CDF is in-house, and the log-normal sampler inverts the normal CDF
with the standard library's ``statistics.NormalDist``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
# Problems per lockstep Nelder-Mead batch; a grid-scan pass holds as many
# entries' grids as fit in it, and at least one. Larger batches were no
# faster and raised fit's peak RSS (1024: +1.7 MB on the panel benchmark).
_BATCH = 256
_SQRT_2PI = math.sqrt(2.0 * math.pi)


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


def _lognormal_pdf_over(x, mu, sigma, mass) -> np.ndarray:
    """The log-normal density divided by ``mass``, its (0, 1] mass when truncated.

    The parameters and mass are floats, or (m, 1) columns for m densities.
    """
    x = np.asarray(x, float)
    out = np.exp(-((np.log(x) - mu) ** 2) / _by_row(lambda s: 2.0 * s**2, sigma))
    out /= _SQRT_2PI * sigma * x * mass
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


def _gamma_pdf_over(x, shape, scale, mass) -> np.ndarray:
    """The gamma density divided by ``mass``, its (0, 1] mass when truncated.

    The parameters and mass are floats, or (m, 1) columns for m densities.
    """
    x = np.asarray(x, float)
    log_pdf = ((shape - 1.0) * np.log(x) - x / scale - _by_row(math.lgamma, shape)
               - _by_row(lambda a, s: a * math.log(s), shape, scale))
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


def _exp_pdf_over(y, beta, norm) -> np.ndarray:
    """The saturating exponential 1 - e^(beta*y) divided by ``norm``, its (0, 1] mass.

    beta and norm are floats, or (m, 1) columns for m densities.
    """
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


def _at_bound(x: np.ndarray, bounds, tol: float) -> np.ndarray:
    """Per row of ``x``: True when any parameter lies within ``tol`` of either end of its box."""
    lo, hi = np.array(bounds, float).T
    return ((x - lo <= tol) | (hi - x <= tol)).any(axis=1)


_NM_FAILURE = "Maximum number of function evaluations has been exceeded."


def _nelder_mead_batch(fun, x0, bounds, xatol: float, fatol: float, maxfev: int):
    """Bounded Nelder-Mead over R independent problems in lockstep.

    Every problem takes the steps of scipy 1.17's ``minimize(method=
    "Nelder-Mead", bounds=...)`` exactly, on float64 arithmetic that rounds
    as Python floats do: the centroid is summed in vertex order from 0, the
    simplex is sorted stably, and points are clipped as ``min(max())``.
    ``x0`` is R x n; the simplex is R x (n+1) x n, its values R x (n+1),
    and each problem counts its own evaluations. At each step the
    candidates of every live problem are scored by one call
    ``fun(ids, points)``: the (m, n) ``points`` of the problems ``ids``
    (row indices of ``x0``), returning their m values, none NaN (a NaN would
    sort and compare unlike Python's floats). ``maxfev`` also bounds
    scipy's iterations, but the evaluations run out first. Returns the best
    vertex (R x n), its value, and whether each problem converged; one that
    did not ran out of evaluations.
    """
    lo, hi = np.array(bounds, float).T

    def clip(v):
        return np.minimum(np.maximum(v, lo), hi)

    x0 = clip(np.asarray(x0, float))
    rows, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    for k in range(n):
        v = sim[:, k + 1, k]
        sim[:, k + 1, k] = np.where(v != 0, 1.05 * v, 0.00025)
    # a vertex stepped past its upper bound is reflected back inside, then clipped
    sim = clip(np.where(sim > hi, 2 * hi - sim, sim))
    ids = np.arange(rows)
    fsim = np.full((rows, n + 1), np.inf)  # a vertex the budget never reached stays at inf
    for k in range(min(n + 1, maxfev)):
        fsim[:, k] = fun(ids, sim[:, k])
    nfev = np.full(rows, min(n + 1, maxfev))
    x_out, f_out, converged = np.empty((rows, n)), np.empty(rows), np.zeros(rows, bool)

    while True:
        order = np.argsort(fsim, axis=1, kind="stable")  # ties keep their order, as in scipy
        sim, fsim = np.take_along_axis(sim, order[:, :, None], 1), np.take_along_axis(fsim, order, 1)
        spent = nfev >= maxfev
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, not converged, and no warning
            flat = (np.abs(fsim[:, :1] - fsim[:, 1:]) <= fatol).all(axis=1)
        done = spent | ((np.abs(sim[:, 1:] - sim[:, :1]) <= xatol).all(axis=(1, 2)) & flat)
        if done.any():
            x_out[ids[done]], f_out[ids[done]] = sim[done, 0], fsim[done, 0]
            converged[ids[done]] = ~spent[done]
            live = ~done
            ids, sim, fsim, nfev = ids[live], sim[live], fsim[live], nfev[live]
            if not ids.size:
                return x_out, f_out, converged
        xbar = sum(sim[:, j] for j in range(n)) / n  # Python's sum, as scipy's add.reduce for n <= 2
        worst = sim[:, -1]
        xr = clip(2.0 * xbar + -1.0 * worst)  # every move is cb * centroid + cw * worst
        fr = fun(ids, xr)
        nfev += 1
        expand = fr < fsim[:, 0]
        reflect = ~expand & (fr < fsim[:, -2])
        outside = ~expand & ~reflect & (fr < fsim[:, -1])
        replace, shrink = reflect.copy(), np.zeros_like(reflect)
        # Expansions and contractions, while the budget lasts. A problem out
        # of evaluations here keeps its simplex and stops on the next pass.
        s = np.flatnonzero(~reflect & (nfev < maxfev))
        if s.size:
            e, o = expand[s], outside[s]
            cb = np.where(e, 3.0, np.where(o, 1.5, 0.5))[:, None]
            cw = np.where(e, -2.0, np.where(o, -0.5, 0.5))[:, None]
            x2 = clip(cb * xbar[s] + cw * worst[s])
            f2 = fun(ids[s], x2)
            nfev[s] += 1
            better = np.where(e, f2 < fr[s], np.where(o, f2 <= fr[s], f2 < fsim[s, -1]))
            xr[s[better]], fr[s[better]] = x2[better], f2[better]
            replace[s] = better | e  # an expansion keeps the reflection when it is no better
            shrink[s] = ~replace[s]
        sim[replace, -1], fsim[replace, -1] = xr[replace], fr[replace]
        h = np.flatnonzero(shrink)
        if h.size:  # shrink toward the best vertex, one evaluation per vertex while they last
            best = sim[h, :1]
            shrunk = clip(best + 0.5 * (sim[h, 1:] - best))
            r, j = np.nonzero((maxfev - nfev[h])[:, None] > np.arange(n))
            sim[h[r], j + 1] = shrunk[r, j]
            fsim[h[r], j + 1] = fun(ids[h[r]], shrunk[r, j])
            nfev[h] += np.bincount(r, minlength=h.size)


def _nelder_mead(fun, x0, bounds, xatol: float, fatol: float, maxfev: int):
    """Bounded Nelder-Mead on one problem, step for step as scipy 1.17's ``minimize``.

    ``fun`` takes the parameters as a list of floats. Returns the best
    vertex, its value, and None or why it stopped.
    """
    def values(_, points):
        return np.array([fun(p) for p in points.tolist()], float)

    x, f, converged = _nelder_mead_batch(values, [x0], bounds, xatol, fatol, maxfev)
    return x[0].tolist(), float(f[0]), None if converged[0] else _NM_FAILURE


def _by_row(f, *params):
    """``f`` of the parameters as Python floats: once for scalars, else row by row.

    Parameters are scalars or (m, 1) columns. The scalar factors of the
    densities are computed with ``math`` either way, so a row of a batch is
    bit for bit the density of that row's parameters alone.
    """
    if np.ndim(params[0]) == 0:
        return f(*params)
    return np.array(list(map(f, *(p.ravel().tolist() for p in params))))[:, None]


@dataclass(frozen=True)
class _Law:
    """A body law fitted by least squares on (0, 1]."""

    name: str         # as its errors name it
    pdf_over: object  # (x, *params, mass) -> the density divided by mass; params may be columns
    mass: object      # (*params) -> its (0, 1] mass, with math
    grid: np.ndarray  # start grid, scanned in row order
    bounds: tuple
    record: object    # (params, rms, at_bound) -> the fit's dataclass


def _sse(law: _Law, centers: np.ndarray, density: np.ndarray):
    """The batch objective of ``law`` at bin ``centers``, for `_nelder_mead_batch`.

    Problem i fits the empirical density ``density[i]``. Each candidate's (0, 1]
    mass is computed once with ``law.mass`` and handed to ``law.pdf_over``:
    bit for bit the public ``trunc_*_pdf``. A candidate whose mass
    underflows scores 1e300. The model densities are finite or +inf at a
    positive center, so a sum of squares is never NaN there; a bin center at
    or below 0 (or so close to 0 that the log-normal's normalizer
    underflows) gives 0/0, and such a sum scores +inf so that every value is
    ordered. Each row's sum is ``diff[i] @ diff[i]``: the stacked matmul
    below runs numpy's vector dot per row (pinned by a test).
    """
    def fun(ids, params):
        mass = np.array([law.mass(*p) for p in params.tolist()])
        out = np.full(mass.size, 1e300)
        ok = mass > 1e-300
        if ok.any():
            columns = params[ok].T[:, :, None]
            diff = law.pdf_over(centers, *columns, mass[ok, None]) - density[ids[ok]]
            out[ok] = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
        return np.where(np.isnan(out), np.inf, out)

    return fun


def _fit_law(law: _Law, pdfs, starts=None) -> list:
    """Least-squares fits of ``law`` to each density: its record, or the FitError that stopped it.

    A density with fewer than ``MIN_FIT_BINS`` non-empty bins is TooFewBins.
    Each search starts at ``starts[i]`` when given, else at the first grid
    point of least sum of squares, and bounded Nelder-Mead refines it. The
    densities on the same bins are fitted together, at bin centers computed
    once: the grid scans in array passes of as many whole grids as
    ``_BATCH`` candidates hold (at least one), and the searches in lockstep
    batches of up to ``_BATCH`` problems.
    """
    out: list = [None] * len(pdfs)
    groups: dict = {}  # (domain, edges) -> indices of the densities binned on them
    for i, pdf in enumerate(pdfs):
        bins = pdf.nonempty_bins()
        if bins < MIN_FIT_BINS:
            out[i] = TooFewBins(f"need >= {MIN_FIT_BINS} non-empty bins, got {bins}")
        else:
            groups.setdefault((pdf.domain, np.asarray(pdf.bin_edges, float).tobytes()), []).append(i)
    grid = law.grid
    for members in groups.values():
        centers = pdfs[members[0]].centers()
        for lo in range(0, len(members), _BATCH):
            index = members[lo:lo + _BATCH]
            fun = _sse(law, centers, np.array([pdfs[i].density for i in index], float))
            if starts is not None:
                x0 = np.array([starts[i] for i in index], float)
            else:
                x0 = np.empty((len(index), grid.shape[1]))
                per = max(1, _BATCH // len(grid))  # problems per grid-scan pass
                for k in range(0, len(index), per):
                    rows = np.arange(k, min(k + per, len(index)))
                    sse = fun(np.repeat(rows, len(grid)), np.tile(grid, (rows.size, 1)))
                    # no value is NaN, so argmin's first minimum is min(grid, key=sse)'s
                    x0[rows] = grid[sse.reshape(rows.size, len(grid)).argmin(axis=1)]
            x, f, converged = _nelder_mead_batch(fun, x0, law.bounds, _XATOL, 1e-12, _NM_MAXFEV)
            at_bound = _at_bound(x, law.bounds, _XATOL).tolist()
            for row, i in enumerate(index):
                if converged[row]:
                    rms = math.sqrt(float(f[row]) / centers.size)
                    out[i] = law.record(tuple(x[row].tolist()), rms, at_bound[row])
                else:
                    out[i] = OptimizerDidNotConverge(f"{law.name} fit did not converge: {_NM_FAILURE}")
    return out


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

BODY_LAWS = {
    "lognormal": _Law(
        "log-normal", _lognormal_pdf_over, lognormal_unit_mass, np.array(_LOGNORMAL_GRID),
        (MU_BOUNDS, SIGMA_BOUNDS),
        lambda p, rms, at_bound: LogNormalFit(*p, lognormal_unit_mass(*p), rms, at_bound)),
    "gamma": _Law(
        "gamma", _gamma_pdf_over, gamma_unit_mass, np.array(_GAMMA_GRID),
        (GAMMA_SHAPE_BOUNDS, GAMMA_SCALE_BOUNDS),
        lambda p, rms, at_bound: GammaFit(*p, gamma_unit_mass(*p), rms, at_bound)),
    "exp": _Law(
        "exponential profile", _exp_pdf_over, exp_profile_norm, np.array(_EXP_GRID),
        (BETA_BOUNDS,),
        lambda p, rms, at_bound: ExpProfileFit(*p, exp_profile_norm(*p), rms, at_bound)),
}


def fit_batch(law: str, pdfs) -> list:
    """Least-squares fits of the body law ``law`` ("lognormal", "gamma" or "exp")
    to every density of ``pdfs``, in order: each one's fit, or the FitError
    (TooFewBins, OptimizerDidNotConverge) that stopped it.

    Each result equals the single fitter's (``fit_lognormal_lsq``, ...) bit
    for bit; the batch runs every grid scan and search in array passes.
    """
    return _fit_law(BODY_LAWS[law], list(pdfs))


def _fit_one(law: str, pdf: EmpiricalPdf, start=None):
    result = _fit_law(BODY_LAWS[law], [pdf], None if start is None else [start])[0]
    if isinstance(result, FitError):
        raise result
    return result


def fit_lognormal_lsq(pdf: EmpiricalPdf, *, start=None) -> LogNormalFit:
    """Least-squares truncated log-normal fit to a binned density on (0, 1].

    Minimizes the sum of squared differences between the model density at bin
    centers and the empirical density, with the truncation normalizer
    recomputed for every candidate parameter pair. The search is a coarse
    grid (skipped when ``start`` is given) refined by bounded Nelder-Mead.
    """
    return _fit_one("lognormal", pdf, start)


def fit_gamma_lsq(pdf: EmpiricalPdf) -> GammaFit:
    """Least-squares truncated gamma fit; comparison partner for the log-normal."""
    return _fit_one("gamma", pdf)


def fit_exp_profile(pdf: EmpiricalPdf) -> ExpProfileFit:
    """Bounded least-squares fit of (1 - e^(beta*y))/norm to a binned density.

    beta is searched over [-100, -0.01] by the same grid and Nelder-Mead
    path as the other body laws; the upper bound keeps the fitter away from
    the degenerate beta -> 0 limit where the shape loses all mass.
    """
    return _fit_one("exp", pdf)


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


def gof_pvalues(jobs, repeats: int = 1000) -> list[tuple[float, int]]:
    """Parametric-bootstrap p-values of truncated log-normal fits, all in one batch.

    ``jobs`` holds (pdf, fit, seed) triples. Repeat ``rep`` of a job bins
    one multinomial draw of the empirical count over the fitted bin masses,
    from ``np.random.default_rng([seed, rep])``, and refits the log-normal
    to it from the fitted parameters. For each job returns the p-value,
    ``gof_pvalue_mc(pdf, fit, repeats, seed)`` exactly, and the number of
    its draws that could not be refitted (TooFewBins or
    OptimizerDidNotConverge), each counted as a hit. The draws of every job
    and repeat go to ``_fit_law`` up to ``_BATCH`` at a time, so the memory
    held does not grow with ``repeats``.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    jobs = list(jobs)
    # numpy's last category takes what the bins leave of 1: the mass outside the edges
    masses = [_trunc_lognormal_bin_masses(np.asarray(pdf.bin_edges, float), fit.mu, fit.sigma)
              + [0.0] for pdf, fit, _ in jobs]
    hits, unfittable = [0] * len(jobs), [0] * len(jobs)
    for lo in range(0, len(jobs) * repeats, _BATCH):
        draws = [divmod(k, repeats) for k in range(lo, min(lo + _BATCH, len(jobs) * repeats))]
        synth = []
        for j, rep in draws:
            pdf, _, seed = jobs[j]
            counts = np.random.default_rng([seed, rep]).multinomial(pdf.count, masses[j])[:-1]
            synth.append(pdf_from_counts(counts, pdf.bin_edges, pdf.domain))
        starts = [(jobs[j][1].mu, jobs[j][1].sigma) for j, _ in draws]
        for (j, _), refit in zip(draws, _fit_law(BODY_LAWS["lognormal"], synth, starts)):
            failed = isinstance(refit, FitError)
            hits[j] += failed or refit.rms >= jobs[j][1].rms
            unfittable[j] += failed
    return [(h / repeats, u) for h, u in zip(hits, unfittable)]


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
    return gof_pvalues([(pdf, fit, seed)], repeats)[0][0]
