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

tau -> infinity gives complete rethermalization (P_eq).  The ideal triplet
reset Theta is the same map with (e^{-k_S tau}, e^{-(k_T+k_S) tau}) set to
(1, 0), its T1 << tau << TS limit, and both engines share one pump loop
(`protocol._pump`).

Engine semantics match `protocol`: populations are carried to first order
in eps.  The thermal state is an exact null vector of R, so the deviation
from thermal relaxes under the eps-independent generator and the sole
eps-dependence of any run is the linear thermal source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    SINGLET_ORDER,
    ZEEMAN_ORDER,
    PopulationVector,
    SpinSystemParams,
    epsilon,
)
from .protocol import (
    _PERM_MATRICES,
    RESET0,
    THERMAL_DEVIATION,
    Permutation,
    TransferMatrix,
    _pump,
    _reset_matrix,
    signal_from_singlet_order,
)

_RATE_CHECK_TOL = 1e-9


class CalibrationError(ValueError):
    """Raised when the calibrated generator fails its self-verification."""


def _projectors(eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Theta(eps) and P_eq(eps) (every column the thermal vector) as raw arrays."""
    p_eq = np.array([1.0, 1.0 + eps, 1.0, 1.0 - eps]) / 4.0
    return _reset_matrix(eps), np.tile(p_eq.reshape(4, 1), (1, 4))


def _generator(k_t: float, k_s: float, eps: float) -> np.ndarray:
    """R = k_T(Theta(eps) - I) + k_S(P_eq(eps) - I)."""
    theta, p_eq = _projectors(eps)
    eye = np.eye(4)
    return k_t * (theta - eye) + k_s * (p_eq - eye)


def _relaxation_map(k_t: float, k_s: float, eps: float, tau: float) -> np.ndarray:
    """exp(R*tau) in projector form; as P_eq + (Theta - P_eq) + (I - Theta) = I,
    expm1 carries the departure from I, which keeps short intervals accurate."""
    theta, p_eq = _projectors(eps)
    eye = np.eye(4)
    a, b = np.expm1(-k_s * tau), np.expm1(-(k_t + k_s) * tau)
    return eye + a * (theta - p_eq) + b * (eye - theta)


@dataclass(frozen=True)
class RateMatrix:
    """Calibrated population-relaxation generator.

    Attributes:
        r: 4x4 generator at polarization eps (columns sum to zero, thermal
           vector in the null space).
        k_t: triplet equilibration rate in s^-1.
        k_s: singlet-exchange rate in s^-1.
        eps: polarization parameter the thermal vector was built with.
    """

    r: np.ndarray
    k_t: float
    k_s: float
    eps: float

    def __post_init__(self) -> None:
        arr = np.array(self.r, dtype=float, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "r", arr)


def calibrate_rates(t1: float, ts: float, eps: float = 0.0) -> RateMatrix:
    """Build the rate matrix whose ZO mode decays at 1/t1 and SO mode at 1/ts.

    Raises:
        ValueError: unless 0 < t1 < ts (k_T would be nonpositive).
        CalibrationError: if the constructed generator does not reproduce
            the requested decay rates on the ZO/SO eigendirections.
    """
    if t1 <= 0.0:
        raise ValueError(f"t1 must be positive, got {t1}")
    if ts <= t1:
        raise ValueError(f"ts = {ts} must exceed t1 = {t1} (k_T would be <= 0)")
    k_s = 1.0 / ts
    k_t = 1.0 / t1 - 1.0 / ts
    r = _generator(k_t, k_s, eps)

    # self-check on the eps = 0 generator: SO and ZO modes decay at 1/ts, 1/t1
    r0 = _generator(k_t, k_s, 0.0)
    v_so = np.array([3.0, -1.0, -1.0, -1.0])
    v_zo = np.array([0.0, 1.0, 0.0, -1.0])
    so_err = np.max(np.abs(r0 @ v_so + v_so / ts)) / (np.max(np.abs(v_so)) / ts)
    zo_err = np.max(np.abs(r0 @ v_zo + v_zo / t1)) / (np.max(np.abs(v_zo)) / t1)
    if so_err > _RATE_CHECK_TOL or zo_err > _RATE_CHECK_TOL:
        raise CalibrationError(
            f"calibrated generator misses its decay rates (SO err {so_err:.2e}, "
            f"ZO err {zo_err:.2e})"
        )
    return RateMatrix(r=r, k_t=k_t, k_s=k_s, eps=eps)


def finite_reset(rate: RateMatrix, tau: float) -> TransferMatrix:
    """Relaxation over an interval tau as the transfer matrix exp(R*tau).

    Evaluated in closed form at ``rate.eps``.  tau = 0 gives the identity;
    tau -> infinity converges to complete rethermalization (every column
    the thermal vector).
    """
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return TransferMatrix(
        _relaxation_map(rate.k_t, rate.k_s, rate.eps, tau), label=f"finite_reset(tau={tau!r})"
    )


@dataclass(frozen=True)
class KineticProtocolResult:
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


def _so_of_deviation(delta: np.ndarray) -> float:
    return float(SINGLET_ORDER.normalization * (delta[0] - (delta[1] + delta[2] + delta[3]) / 3.0))


def run_kinetic(
    n_p: int,
    tau: float,
    tau_ev: float,
    params: SpinSystemParams,
    *,
    enhance: bool = False,
    tau_prime: Optional[float] = None,
    ideal_resets: bool = False,
) -> KineticProtocolResult:
    """Pump n_p permutations with finite resets of duration tau.

    Every ideal reset of the pump sequence is replaced by relaxation under
    the calibrated rate matrix for an interval tau; after the pump the
    state relaxes freely for tau_ev before the singlet-filtered signal is
    computed.  With ``enhance=True`` the post-pump state is additionally
    run through a final reset of duration tau_prime (defaulting to tau)
    and the 1<->2 population swap, and the resulting Zeeman order is
    reported in ``zo_final``.

    ``ideal_resets=True`` substitutes the instantaneous ideal reset for
    the pump and final resets (the tau_ev interval still relaxes),
    reproducing the ideal engine exactly (consistency diagnostic).
    """
    if n_p < 0:
        raise ValueError(f"n_p must be >= 0, got {n_p}")
    if tau < 0.0 or tau_ev < 0.0:
        raise ValueError("tau and tau_ev must be >= 0")
    if tau_prime is not None and tau_prime < 0.0:
        raise ValueError("tau_prime must be >= 0")

    eps = epsilon(params)
    rate = calibrate_rates(params.t1, params.ts, eps)
    source = eps * THERMAL_DEVIATION

    # the deviation from the thermal fixed point relaxes under the eps = 0
    # generator (first order in eps)
    def relax(delta: np.ndarray, interval: float) -> np.ndarray:
        return source + _relaxation_map(rate.k_t, rate.k_s, 0.0, interval) @ (delta - source)

    def reset(interval: float) -> np.ndarray:
        return RESET0 if ideal_resets else _relaxation_map(rate.k_t, rate.k_s, 0.0, interval)

    deltas = _pump(n_p, reset(tau), source)
    trace = [(k, _so_of_deviation(d)) for k, d in enumerate(deltas)]
    delta = deltas[-1]
    pump_pop = PopulationVector(0.25 + delta)

    # detection branch: free evolution, then rank-0 filter + conversion
    delta_det = relax(delta, tau_ev) if tau_ev > 0.0 else delta
    signal = signal_from_singlet_order(_so_of_deviation(delta_det), eps)

    zo_final: Optional[float] = None
    if enhance:
        tp = tau if tau_prime is None else tau_prime
        delta_enh = source + reset(tp) @ (delta - source)
        delta_enh = _PERM_MATRICES[Permutation.PI12] @ delta_enh
        zo_final = float(np.dot(ZEEMAN_ORDER.eigenvalues, delta_enh))

    return KineticProtocolResult(
        populations_after_pump=pump_pop,
        so_trace=tuple(trace),
        signal=signal,
        zo_final=zo_final,
    )


def zeeman_enhancement_ratio(
    n_p: int,
    tau: float,
    tau_prime: float,
    params: SpinSystemParams,
) -> float:
    """ZO after pump + final reset + swap, relative to thermal Zeeman order."""
    res = run_kinetic(n_p, tau, 0.0, params, enhance=True, tau_prime=tau_prime)
    eps = epsilon(params)
    zo_eq = eps / (2.0 * np.sqrt(2.0))
    assert res.zo_final is not None
    return res.zo_final / zo_eq


@dataclass(frozen=True)
class TauSweep:
    """Signal versus reset duration, with the grid optimum."""

    points: tuple[tuple[float, float], ...]
    tau_star: float
    signal_star: float


def _check_grid(grid: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(grid, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if arr.ndim != 1 or (arr.size > 1 and not np.all(np.diff(arr) > 0)):
        raise ValueError(f"{name} must be strictly increasing")
    return arr


def sweep_tau(n_p: int, tau_grid: Sequence[float], params: SpinSystemParams) -> TauSweep:
    """Run the pump for each reset duration in the grid.

    Grid points are independent; results are ordered by the input grid.
    The optimum is the grid point maximizing the signal magnitude.
    """
    grid = _check_grid(tau_grid, "tau_grid")
    points = tuple(
        (float(tau), run_kinetic(n_p, float(tau), 0.0, params).signal) for tau in grid
    )
    best = max(range(len(points)), key=lambda i: abs(points[i][1]))
    return TauSweep(points=points, tau_star=points[best][0], signal_star=points[best][1])


def decay_curve(
    n_p: int,
    tau: float,
    tau_ev_grid: Sequence[float],
    params: SpinSystemParams,
) -> tuple[tuple[float, float], ...]:
    """Signal versus post-pump evolution interval tau_ev."""
    grid = _check_grid(tau_ev_grid, "tau_ev_grid")
    if grid.min() < 0.0:
        raise ValueError("tau_ev_grid entries must be >= 0")
    return tuple(
        (float(tev), run_kinetic(n_p, tau, float(tev), params).signal) for tev in grid
    )


@dataclass(frozen=True)
class FitResult:
    """Monoexponential fit y = A*exp(-t/T) with a success flag.

    ``ok`` is False (rather than raising) for degenerate data, fits that
    do not converge, or a nonpositive fitted time constant.
    """

    amplitude: float
    time_constant: float
    residual_norm: float
    ok: bool
    message: str = ""


def fit_monoexponential(points: Sequence[tuple[float, float]]) -> FitResult:
    """Least-squares fit of y = A*exp(-t/T), no offset term.

    The nonlinear refinement (Levenberg-Marquardt) is seeded by log-linear
    regression on |y|.  At least 3 points with nonnegative times are
    required.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("need at least 3 (t, y) points")
    t, y = pts[:, 0], pts[:, 1]
    if t.min() < 0.0:
        raise ValueError("times must be nonnegative")

    if np.ptp(y) == 0.0:
        return FitResult(np.nan, np.nan, 0.0, ok=False, message="constant data")

    # log-linear seed on the nonzero magnitudes
    mask = np.abs(y) > 0.0
    if mask.sum() >= 2 and np.ptp(t[mask]) > 0.0:
        slope, intercept = np.polyfit(t[mask], np.log(np.abs(y[mask])), 1)
        # a positive slope seeds a negative time constant on purpose: the
        # refinement then converges there and the result is flagged below
        t_seed = -1.0 / slope if slope != 0.0 else float(np.ptp(t))
        a_seed = float(np.sign(y[mask][np.argmin(t[mask])]) * np.exp(intercept))
    else:
        t_seed = float(np.ptp(t)) or 1.0
        a_seed = float(y[0]) or 1.0

    def model(tt, a, tc):
        return a * np.exp(-tt / tc)

    import scipy.optimize  # the only scipy use; kept off the package import path

    try:
        popt, _ = scipy.optimize.curve_fit(
            model, t, y, p0=[a_seed, t_seed], method="lm", maxfev=10000
        )
    except (RuntimeError, scipy.optimize.OptimizeWarning) as exc:
        return FitResult(np.nan, np.nan, float(np.linalg.norm(y)), ok=False, message=str(exc))

    amplitude, time_constant = float(popt[0]), float(popt[1])
    residual = float(np.linalg.norm(y - model(t, *popt)))
    if not np.isfinite(time_constant) or time_constant <= 0.0:
        return FitResult(
            amplitude, time_constant, residual, ok=False, message="nonpositive time constant"
        )
    return FitResult(amplitude, time_constant, residual, ok=True)
