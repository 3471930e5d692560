"""Finite-time relaxation: calibrated rate matrix, finite resets, pumping runs.

The relaxation of the four populations is modeled by the generator

    R = k_T * (Theta(eps) - I) + k_S * (P_eq(eps) - I)

where Theta is the ideal triplet reset and P_eq is the rank-1 projector
whose columns are all the thermal population vector.  By construction the
k_T term leaves the singlet population untouched, the singlet-order mode
decays at exactly k_S and the Zeeman-order mode at exactly k_T + k_S, so
measured time constants calibrate the model in closed form:

    k_S = 1/TS,    k_T = 1/T1 - 1/TS        (requires TS > T1)

Theta and P_eq are commuting projectors with Theta @ P_eq = P_eq, so the
generator has eigenvalues 0, -k_S and -(k_T + k_S) on P_eq, Theta - P_eq
and I - Theta, and a relaxation interval of duration tau is exactly

    exp(R*tau) = P_eq + e^{-k_S tau} (Theta - P_eq) + e^{-(k_T+k_S) tau} (I - Theta).

Maps and generator are built from one set of parts (I, Theta - P_eq, I - Theta);
the generator is the rate of the maps at tau = 0,

    R = -k_S (Theta - P_eq) - (k_T + k_S) (I - Theta).

tau -> infinity gives complete rethermalization (P_eq).  The ideal triplet reset
Theta is the same map with (e^{-k_S tau}, e^{-(k_T+k_S) tau}) set to (1, 0), its
T1 << tau << TS limit.  The engine steps with the two factors alone, as
a = expm1(-k_S tau) and b = expm1(-(k_T+k_S) tau) in `protocol._reset`; the ideal
engine's (a, b) is (0, -1).

The calibration is these two closed-form rates and nothing more: the mode rates hold by
construction, to round-off, for every finite 0 < T1 < TS (tests/test_kinetics.py checks
them up to TS/T1 = 1e10), so no run re-derives them.

Singlet order is a left eigenvector of every relaxation map with eigenvalue
e^{-k_S tau}, so free evolution for tau_ev after the pump only rescales the
pumped SO by e^{-tau_ev/TS}.  Every kinetic output is therefore read off one
pump of `kinetic_engine`, the `protocol.PopulationEngine` of these maps: the
build-up is the SO of every row, a decay curve scales the signal of the last row,
the enhancement ratio enhances the last row, and a tau sweep pumps the arrays of
its grid's decay factors as one stack.

Engine semantics match `protocol`: populations are carried to first order
in eps.  The thermal state is an exact null vector of R, so the deviation
from thermal relaxes under the eps-independent generator and the sole
eps-dependence of any run is the linear thermal source.

`RateMatrix`, `KineticProtocolResult`, `TauSweep` and `FitResult` are immutable
NamedTuples, like every value type of the package (see `core`): ``_replace``
derives a changed copy, and a result compares equal to the plain tuple of its fields.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import PopulationVector, SpinSystemParams, _Checked, epsilon
from .protocol import PopulationEngine, TransferMatrix, _reset_matrix, _so_of_deviation

_FIT_MAX_STEPS = 200  # Gauss-Newton steps, and halvings of each
_FIT_RTOL = 1e-13


def _map_parts(eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tau-independent parts (I, Theta - P_eq, I - Theta) at eps, built afresh on each
    call; every column of P_eq is the thermal vector."""
    thermal = np.array([1.0, 1.0 + eps, 1.0, 1.0 - eps]) / 4.0
    p_eq = np.tile(thermal.reshape(4, 1), (1, 4))
    theta = _reset_matrix(eps)
    return np.eye(4), theta - p_eq, np.eye(4) - theta


def _generator(k_t: float, k_s: float, eps: float) -> np.ndarray:
    """R = -k_S(Theta - P_eq) - (k_T + k_S)(I - Theta), the rate of the maps at tau = 0,
    from the parts at eps.  Summed as -k_T(I - Theta) - k_S((Theta - P_eq) + (I - Theta)),
    which never rounds k_T + k_S: at eps = 0 it is bit-equal to k_T(Theta - I) +
    k_S(P_eq - I).  The bits of `RateMatrix.r` are pinned to this grouping."""
    _, d_so, d_t = _map_parts(eps)
    return -k_t * d_t - k_s * (d_so + d_t)


def _decay_factors(k_t: float, k_s: float, tau: float | np.ndarray) -> tuple:
    """(a, b) = (expm1(-k_S tau), expm1(-(k_T + k_S) tau)): the departures from 1 of the
    decay factors of Theta - P_eq and I - Theta over an interval tau, the factors of
    `protocol._reset` and of `_relaxation_map`.  Python floats for one interval, arrays of
    tau's shape for an array of them, every element from numpy's expm1, so that a stack
    equals its scalar calls bit for bit.  A k*tau past float64 is exact: expm1(-inf) = -1."""
    taus = np.asarray(tau, dtype=float)
    with np.errstate(over="ignore"):
        a, b = np.expm1(-k_s * taus), np.expm1(-(k_t + k_s) * taus)
    return (a, b) if taus.ndim else (float(a), float(b))


def _relaxation_map(k_t: float, k_s: float, eps: float, tau: float | np.ndarray) -> np.ndarray:
    """exp(R*tau) in projector form, from the parts at eps; as P_eq + (Theta - P_eq)
    + (I - Theta) = I, expm1 carries the departure from I, which keeps short intervals accurate.

    An array of intervals gives the stack of maps, shape tau.shape + (4, 4), each
    slice equal to the scalar call."""
    eye, d_so, d_t = _map_parts(eps)
    a, b = (np.asarray(f)[..., None, None] for f in _decay_factors(k_t, k_s, tau))
    return eye + a * d_so + b * d_t


class _RateFields(NamedTuple):
    r: np.ndarray
    k_t: float
    k_s: float
    eps: float


class RateMatrix(_Checked, _RateFields):
    """Calibrated population-relaxation generator.

    Attributes:
        r: 4x4 generator at polarization eps (columns sum to zero, thermal
           vector in the null space).
        k_t: triplet equilibration rate in s^-1.
        k_s: singlet-exchange rate in s^-1.
        eps: polarization parameter the thermal vector was built with.

    ``r`` is a read-only copy.
    """

    __slots__ = ()

    def __new__(cls, r, k_t, k_s, eps):
        arr = np.array(r, dtype=float, copy=True)
        arr.flags.writeable = False
        return super().__new__(cls, arr, k_t, k_s, eps)


@functools.lru_cache(maxsize=64, typed=True)
def calibrate_rates(t1: float, ts: float, eps: float = 0.0) -> RateMatrix:
    """The rate matrix whose ZO mode decays at 1/t1 and SO mode at 1/ts, in closed form:
    k_S = 1/ts and k_T = 1/t1 - 1/ts, with the generator read off the parts at eps.
    Memoized per (t1, ts, eps); failures are not cached.

    Raises:
        ValueError: unless t1 and ts are finite with 0 < t1 < ts (k_T would be
            nonpositive), or if 1/t1, and so 1/ts, overflows to inf.
    """
    if not 0.0 < t1 < math.inf:
        raise ValueError(f"t1 must be finite and positive, got {t1}")
    if not t1 < ts < math.inf:
        raise ValueError(f"ts = {ts} must be finite and exceed t1 = {t1} (k_T would be <= 0)")
    # float() keeps a numpy scalar from warning
    if math.isinf(1.0 / float(t1)):
        raise ValueError(f"relaxation rate 1/t1 = inf: t1 = {float(t1)!r} is too small")
    k_s = 1.0 / ts
    k_t = 1.0 / t1 - 1.0 / ts
    return RateMatrix(r=_generator(k_t, k_s, eps), k_t=k_t, k_s=k_s, eps=eps)


def finite_reset(rate: RateMatrix, tau: float) -> TransferMatrix:
    """Relaxation over an interval tau as the transfer matrix exp(R*tau).

    Evaluated in closed form at ``rate.eps``.  tau = 0 gives the identity;
    tau -> infinity converges to complete rethermalization (every column
    the thermal vector).
    """
    if not tau >= 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return TransferMatrix(
        _relaxation_map(rate.k_t, rate.k_s, rate.eps, tau), label=f"finite_reset(tau={tau!r})"
    )


class KineticProtocolResult(NamedTuple):
    """Output of one kinetic protocol run.

    Attributes:
        populations_after_pump: state right after the last pump permutation.
        so_trace: (k, SO after k permutations) for k = 0..n_p.
        signal: normalized singlet-filtered signal sqrt(2/3)*SO/ZO_eq,
            measured after the evolution interval.
        zo_final: Zeeman order after the enhancement stage (final reset of
            duration tau_prime followed by the 1<->2 swap), or None when
            the enhancement variant was not requested.
    """

    populations_after_pump: PopulationVector
    so_trace: tuple[tuple[int, float], ...]
    signal: float
    zo_final: Optional[float] = None


def _check_intervals(tau: float, tau_ev: float = 0.0, tau_prime: Optional[float] = None) -> None:
    """Reject a negative or NaN interval; tau and tau_ev are checked before tau_prime."""
    if not (tau >= 0.0 and tau_ev >= 0.0):
        raise ValueError("tau and tau_ev must be >= 0")
    if tau_prime is not None and not tau_prime >= 0.0:
        raise ValueError("tau_prime must be >= 0")


def kinetic_engine(params: SpinSystemParams) -> PopulationEngine:
    """The engine of the rates calibrated to ``params``: the deviation from thermal relaxes
    under the eps = 0 generator (first order in eps), and singlet order decays at 1/TS."""
    eps = epsilon(params)
    rate = calibrate_rates(params.t1, params.ts, eps)
    return PopulationEngine(eps, functools.partial(_decay_factors, rate.k_t, rate.k_s), params.ts)


def run_kinetic(
    n_p: int,
    tau: float,
    tau_ev: float,
    params: SpinSystemParams,
    *,
    enhance: bool = False,
    tau_prime: Optional[float] = None,
) -> KineticProtocolResult:
    """Pump n_p permutations with finite resets of duration tau.

    Every ideal reset of the pump sequence is replaced by relaxation under
    the calibrated rate matrix for an interval tau.  The singlet-filtered
    signal is that of the pumped singlet order after free evolution for
    tau_ev, which rescales it by exp(-tau_ev/TS).  With ``enhance=True``
    the post-pump state is additionally run through a final reset of
    duration tau_prime (defaulting to tau) and the 1<->2 population swap,
    and the resulting Zeeman order is reported in ``zo_final``.
    """
    _check_intervals(tau, tau_ev, tau_prime)
    engine = kinetic_engine(params)
    states = engine.pump(n_p, tau)
    so = [_so_of_deviation(delta) for delta in states]
    tp = tau if tau_prime is None else tau_prime
    return KineticProtocolResult(
        populations_after_pump=PopulationVector([0.25 + d for d in states[-1]]),
        so_trace=tuple(enumerate(so)),
        signal=engine.signal_of_so(so[-1], tau_ev),
        zo_final=engine.enhance(states[-1], tp)[1] if enhance else None,
    )


def zeeman_enhancement_ratio(
    n_p: int,
    tau: float,
    tau_prime: float,
    params: SpinSystemParams,
) -> float:
    """ZO after pump + final reset + swap, relative to thermal Zeeman order."""
    _check_intervals(tau, 0.0, tau_prime)
    engine = kinetic_engine(params)
    return engine.zeeman_ratio(engine.pump(n_p, tau)[-1],
                               tau if tau_prime is None else tau_prime)


class TauSweep(NamedTuple):
    """Signal versus reset duration, with the grid optimum."""

    points: tuple[tuple[float, float], ...]
    tau_star: float
    signal_star: float


def check_grid(grid: Sequence[float], name: str) -> np.ndarray:
    """The grid as a float array; raises unless nonempty, strictly increasing and >= 0."""
    arr = np.asarray(grid, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if arr.ndim != 1 or (arr.size > 1 and not np.all(np.diff(arr) > 0)):
        raise ValueError(f"{name} must be strictly increasing")
    if not arr.min() >= 0.0:
        raise ValueError(f"{name} entries must be >= 0")
    return arr


def sweep_tau(n_p: int, tau_grid: Sequence[float], params: SpinSystemParams) -> TauSweep:
    """Signal versus reset duration, from one pump over the whole grid.

    The maps of the grid points are pumped as one stack and the signals read off
    its last state, one row per point, in grid order; each equals ``run_kinetic(n_p,
    tau, 0.0, params).signal``.  The optimum is the first point of largest magnitude.
    """
    grid = check_grid(tau_grid, "tau_grid")
    engine = kinetic_engine(params)
    sig = engine.signal(engine.pump(n_p, grid)[-1])
    points = tuple(zip(grid.tolist(), sig.tolist()))
    best = int(np.argmax(np.abs(sig)))  # the first maximum
    return TauSweep(points=points, tau_star=points[best][0], signal_star=points[best][1])


def decay_curve(
    n_p: int,
    tau: float,
    tau_ev_grid: Sequence[float],
    params: SpinSystemParams,
) -> tuple[tuple[float, float], ...]:
    """Signal versus post-pump evolution interval tau_ev, from one pump."""
    grid = check_grid(tau_ev_grid, "tau_ev_grid")
    _check_intervals(tau)
    engine = kinetic_engine(params)
    s0 = engine.signal(engine.pump(n_p, tau)[-1])
    # math.exp, not np.exp, which rounds differently on some inputs
    return tuple((tev, s0 * math.exp(-tev / engine.ts)) for tev in grid.tolist())


class FitResult(NamedTuple):
    """Monoexponential fit y = A*exp(-t/T) with a success flag.

    ``ok`` is False (rather than raising) for degenerate data, fits that
    do not converge, a rate the data cannot pin down (every more extreme
    rate fits as well), or a nonpositive fitted time constant.
    """

    amplitude: float
    time_constant: float
    residual_norm: float
    ok: bool
    message: str = ""


def _projected_fit(k: float, t: np.ndarray,
                   y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float]:
    """A(k) = (e.y)/(e.e), residual r, Kaufman Jacobian and r.r of y ~ A e, e = exp(-k t)."""
    e = np.exp(-k * t)
    ee, te = e @ e, t * e
    a = (e @ y) / ee  # numpy scalars: an e that underflows to 0 gives nan, not an error
    r = y - a * e
    return a, r, a * (te - ((e @ te) / ee) * e), float(r @ r)


def _seed_rate(t: np.ndarray, y: np.ndarray) -> float:
    """Minus the centred least-squares slope of log|y| on t over the nonzero y, in closed
    form, or 1/(t spread) where those points span one time or the slope is not finite."""
    nz = y != 0.0
    tm, ly = t[nz], np.log(np.abs(y[nz]))
    tc = tm - tm.mean()
    k = -(tc @ (ly - ly.mean())) / (tc @ tc) if tm.min() < tm.max() else math.nan
    return float(k) if math.isfinite(k) else float(1.0 / np.ptp(t))


def fit_monoexponential(points: Sequence[tuple[float, float]]) -> FitResult:
    """Least-squares fit of y = A*exp(-t/T), no offset term, by variable projection.

    The linear amplitude is projected out (Golub & Pereyra 1973), and Gauss-Newton
    with Kaufman's (1975) Jacobian runs on the rate k = 1/T alone, in Python floats,
    seeded by the closed-form log-linear line of `_seed_rate`; a step that makes
    the residual grow is halved.  Once the gradient changes sign between two rates,
    the secant step of the gradient replaces the Gauss-Newton one, which can
    overshoot on noisy data.  At least 3 finite (t, y) pairs with nonnegative times
    are required.
    """
    try:  # the columns (t, y) of points that are pairs; anything else fails below
        pts = np.array(tuple(zip(*points, strict=True)), dtype=float)
    except (TypeError, ValueError):
        pts = np.empty(0)
    if pts.ndim != 2 or pts.shape[0] != 2 or pts.shape[1] < 3:
        raise ValueError("need at least 3 (t, y) points")
    if not np.isfinite(pts).all():
        raise ValueError("times and values must be finite")
    t, y = pts
    if t.min() < 0.0:
        raise ValueError("times must be nonnegative")
    if y.max() == y.min():
        return FitResult(np.nan, np.nan, 0.0, ok=False, message="constant data")
    if t.max() == t.min():
        return FitResult(np.nan, np.nan, float(np.linalg.norm(y)), False, "all times are equal")

    with np.errstate(all="ignore"):  # trial rates may overflow exp; halving rejects them
        k = _seed_rate(t, y)  # growing data seed k < 0, flagged below
        a, r, jac, rr = _projected_fit(k, t, y)
        k_prev = grad_prev = None
        for _ in range(_FIT_MAX_STEPS):
            grad, jj = float(jac @ r), float(jac @ jac)  # grad: the exact gradient of |r|^2/2
            step = -grad / jj if jj else math.nan
            if grad_prev is not None and grad * grad_prev < 0.0:
                # the Gauss-Newton steps changed sign, so a minimum lies between
                # the last two rates; the secant step of the gradient stays there
                step = -grad * (k - k_prev) / (grad - grad_prev)
            if not math.isfinite(step):
                # the model no longer depends on k: every rate as extreme fits as well
                return FitResult(np.nan, np.nan, math.sqrt(rr), False, "rate not identifiable")
            k_prev, grad_prev = k, grad
            for _ in range(_FIT_MAX_STEPS):
                trial = _projected_fit(k + step, t, y)
                if trial[3] <= rr:
                    k, (a, r, jac, rr) = k + step, trial
                    break
                step /= 2
            # a step too small to lower the residual leaves k at a minimum to round-off
            if abs(step) <= _FIT_RTOL * abs(k):
                break
        else:
            return FitResult(np.nan, np.nan, float(np.linalg.norm(y)), False,
                             "fit did not converge")
        time_constant = float(np.divide(1.0, k))  # k = 0 gives an infinite T, flagged below
    ok = math.isfinite(time_constant) and time_constant > 0.0
    return FitResult(float(a), time_constant, math.sqrt(rr), ok,
                     "" if ok else "nonpositive time constant")
