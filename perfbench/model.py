"""Reference models the benchmark checks the package's outputs against.

They share no code with `singletcool`: each is written from the physics
the package documents, in a different numerical form, so that agreement
to round-off is evidence of correct output rather than of identical code.

* Population kinetics.  At first order in eps the calibrated generator
  R = k_T(Theta - I) + k_S(P_eq - I) has commuting projectors P0 (uniform
  mixing), Theta0 - P0 (singlet order) and I - Theta0 (triplet
  imbalance), so exp(R tau) = P0 + e^{-tau/TS}(Theta0 - P0)
  + e^{-tau/T1}(I - Theta0).  The ideal triplet reset is the same map
  with (e^{-tau/TS}, e^{-tau/T1}) -> (1, 0).  Everything is evaluated at
  eps = 1 (the engines are linear in eps) and vectorised over grids.
* Pulse dynamics.  The midpoint-rule product of the package's
  `propagate`, with all step Hamiltonians diagonalised in one batched
  `eigh` and the steps multiplied as a pairwise tree.
* Spectrum and composite pulses.  Closed-form AB quartet, and the
  classical rotation of the collective magnetization vector.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

SQRT3 = math.sqrt(3.0)
#: Thermal deviation from uniform populations per unit eps (singlet, aa, T0, bb).
E_SRC = np.array([0.0, 0.25, 0.0, -0.25])
#: Population index maps: new = old[idx].  pi124 sends 1->2->4->1.
PI124 = np.array([3, 0, 2, 1])
PI142 = np.array([1, 3, 2, 0])
PI12 = np.array([1, 0, 2, 3])
ZO_EQ = 1.0 / (2.0 * math.sqrt(2.0))


def relax(delta: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """e + E(delta - e) on deviations of shape (..., 4); a, b broadcast over '...'."""
    x = delta - E_SRC
    mean = x.sum(axis=-1, keepdims=True) / 4.0
    trip = x[..., 1:].sum(axis=-1, keepdims=True) / 3.0
    theta = np.concatenate([x[..., :1], np.repeat(trip, 3, axis=-1)], axis=-1)
    a = np.asarray(a)[..., None]
    b = np.asarray(b)[..., None]
    return E_SRC + mean + a * (theta - mean) + b * (x - theta)


def singlet_order(delta: np.ndarray) -> np.ndarray:
    return (SQRT3 / 2.0) * (delta[..., 0] - delta[..., 1:].sum(axis=-1) / 3.0)


def signal(delta: np.ndarray) -> np.ndarray:
    return math.sqrt(2.0 / 3.0) * singlet_order(delta) / ZO_EQ


def decay_factors(tau, t1: float, ts: float):
    tau = np.asarray(tau, dtype=float)
    return np.exp(-tau / ts), np.exp(-tau / t1)


def pump(n_p: int, a, b, shape=()) -> tuple[np.ndarray, np.ndarray]:
    """Deviation after n_p permutations and the SO trace, shape (n_p + 1, ...)."""
    delta = np.broadcast_to(E_SRC, tuple(shape) + (4,)).copy()
    trace = [singlet_order(delta)]
    for k in range(n_p):
        delta = relax(delta, a, b)[..., PI124 if k % 2 == 0 else PI142]
        trace.append(singlet_order(delta))
    return delta, np.array(trace)


def kinetic_signal(n_p: int, tau, tau_ev, t1: float, ts: float) -> np.ndarray:
    """Singlet-filtered signal after a finite-reset pump and free evolution tau_ev."""
    tau, tau_ev = np.broadcast_arrays(np.asarray(tau, float), np.asarray(tau_ev, float))
    a, b = decay_factors(tau, t1, ts)
    delta, _ = pump(n_p, a, b, tau.shape)
    return signal(relax(delta, *decay_factors(tau_ev, t1, ts)))


def enhanced_zo_ratio(delta: np.ndarray, a, b) -> np.ndarray:
    """Zeeman order after final reset + 1<->2 swap, relative to thermal."""
    d = relax(delta, a, b)[..., PI12]
    return (d[..., 1] - d[..., 3]) / math.sqrt(2.0) / ZO_EQ


def kinetic_zo_ratio(n_p: int, tau: float, tau_prime: float, t1: float, ts: float) -> float:
    delta, _ = pump(n_p, *decay_factors(tau, t1, ts))
    return float(enhanced_zo_ratio(delta, *decay_factors(tau_prime, t1, ts)))


def ideal_pump(n_p: int) -> tuple[np.ndarray, np.ndarray]:
    return pump(n_p, 1.0, 0.0)


def ideal_zo_ratio(n_p: int) -> float:
    delta, _ = ideal_pump(n_p)
    return float(enhanced_zo_ratio(delta, 1.0, 0.0))


def closed_form_so(n_p: int) -> float:
    """(-1)^n (sqrt3/4)(1 - 3^-n) per unit eps."""
    return (-1.0) ** n_p * (SQRT3 / 4.0) * (1.0 - 3.0 ** (-n_p))


# --- pulse level -----------------------------------------------------------

_SX = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
_SY = np.array([[0, -0.5j], [0.5j, 0]], dtype=complex)
_SZ = np.array([[0.5, 0], [0, -0.5]], dtype=complex)
_E2 = np.eye(2, dtype=complex)
I1 = [np.kron(s, _E2) for s in (_SX, _SY, _SZ)]
I2 = [np.kron(_E2, s) for s in (_SX, _SY, _SZ)]
_R2 = 1.0 / math.sqrt(2.0)
#: Columns: singlet, |aa>, central triplet, |bb> in the product basis.
ST = np.array([[0, 1, 0, 0], [_R2, 0, _R2, 0], [-_R2, 0, _R2, 0], [0, 0, 0, 1]], dtype=complex)
PERM_MATRIX = {"pi124": np.eye(4)[PI124], "pi142": np.eye(4)[PI142]}


def bundled_coefficients(src: Path) -> tuple[float, ...]:
    text = (src / "singletcool" / "data" / "apsoc_coefficients.txt").read_text()
    return tuple(float(line) for line in text.splitlines() if line.strip())


def shift_hz(delta_ppm: float, b0: float, gamma: float) -> float:
    return gamma * b0 * delta_ppm * 1e-6 / (2.0 * math.pi)


def _expm_h(h: np.ndarray, dt: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * dt)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def _rotation(angle: float, phase: float) -> np.ndarray:
    axis = (I1[0] + I2[0]) * math.cos(phase) + (I1[1] + I2[1]) * math.sin(phase)
    return _expm_h(axis, angle)


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """steps[n-1] @ ... @ steps[0] by pairwise reduction."""
    while len(steps) > 1:
        if len(steps) % 2:
            steps = np.concatenate([steps, np.eye(4, dtype=complex)[None]])
        steps = steps[1::2] @ steps[0::2]
    return steps[0]


def pulse_transfer(
    kind: str,
    coefficients,
    max_amplitude: float,
    duration: float,
    offset_hz: float,
    phase: float,
    n_steps: int,
    j: float,
    shift: float,
) -> tuple[np.ndarray, float]:
    """Transfer matrix and fidelity of shaped pulse + composite 90 (frame sign +1)."""
    coeffs = np.asarray(coefficients, dtype=float)[::-1]
    grid = np.polyval(coeffs, np.linspace(0.0, 1.0, 20001))
    peak = max(abs(grid.min()), abs(grid.max()))
    x_mid = (np.arange(n_steps) + 0.5) / n_steps
    amp = max_amplitude * np.polyval(coeffs, x_mid) / peak
    w_off = -2.0 * math.pi * offset_hz
    iz = I1[2] + I2[2]
    h0 = (
        w_off * iz
        + math.pi * shift * (I1[2] - I2[2])
        + 2.0 * math.pi * j * sum(a @ b for a, b in zip(I1, I2))
    )
    rf = (I1[0] + I2[0]) * math.cos(phase) + (I1[1] + I2[1]) * math.sin(phase)
    u_pulse = _ordered_product(_expm_h(h0 + amp[:, None, None] * rf, duration / n_steps))
    sign = 1 if kind == "pi124" else -1
    u_comp = _rotation(0.5 * math.pi, sign * math.radians(150.0)) @ _rotation(
        math.pi, sign * math.radians(30.0)
    )
    u_st = ST.conj().T @ u_comp @ u_pulse @ ST
    transfer = np.abs(u_st) ** 2
    return transfer, float(np.sum(PERM_MATRIX[kind] * transfer) / 4.0)


def composite_overlap(sign: int, scale: float) -> float:
    """z-component reached from x by the composite 90, as the package's overlap."""
    v = np.array([1.0, 0.0, 0.0])
    for angle, phase_deg in ((math.pi * scale, 30.0), (0.5 * math.pi * scale, 150.0)):
        phi = math.radians(sign * phase_deg)
        n = np.array([math.cos(phi), math.sin(phi), 0.0])
        v = (
            v * math.cos(angle)
            + np.cross(n, v) * math.sin(angle)
            + n * np.dot(n, v) * (1.0 - math.cos(angle))
        )
    return float(-sign * v[2])


def ab_lines(j: float, shift: float) -> list[tuple[float, float]]:
    """AB quartet (frequency Hz, intensity), sorted; total intensity 1."""
    c = math.hypot(j, shift)
    inner, outer = (1.0 + j / c) / 4.0, (1.0 - j / c) / 4.0
    return [(-(c + j) / 2.0, outer), (-(c - j) / 2.0, inner),
            ((c - j) / 2.0, inner), ((c + j) / 2.0, outer)]
