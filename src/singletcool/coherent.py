"""Pulse-level two-spin dynamics: Hamiltonians, shaped pulses, propagators.

Everything here is a 4x4 complex matrix in one of two bases:

* product basis {|aa>, |ab>, |ba>, |bb>} -- spin operators, Hamiltonians
  and propagators are built here;
* singlet-triplet basis (singlet, |aa>, central triplet, |bb>) -- the
  package-wide state indexing, used for population-transfer matrices and
  density operators.

``spin_operators().product_to_st`` holds the unitary whose columns are the
singlet-triplet states expressed in the product basis.

Rotating-frame conventions.  The free Hamiltonian (rad/s) is

    H = w_off*(I1z+I2z) + (w_delta/2)*(I1z-I2z) + 2*pi*J*(I1.I2)

with w_delta = gamma*B0*delta_shift*1e-6 and w_off = 2*pi*offset_hz, the
offset of the *spins* in the frame of the radiofrequency carrier.  A
carrier displaced by +x Hz from the spectrum centre puts the spins at
-x Hz in its frame, so the shaped-pulse labels APSOC(+-) (carrier at
+-35 Hz) enter the Hamiltonian with the opposite sign.  Flipping
``frame_sign`` in `simulate_permutation` flips this bookkeeping globally
and therefore swaps which population cycle each pulse sequence realizes.

The shaped-pulse envelope is a degree-20 polynomial in t/T whose bundled
coefficients are not unit-normalized: `apsoc_amplitude` evaluates the raw
polynomial scaled by ``max_amplitude``, while `apsoc_waveform` rescales
the profile so that its peak over the pulse equals ``max_amplitude``,
which is what the stated peak nutation frequency means physically.  Use
the waveform for dynamics.

Propagation.  A pulse is a piecewise-constant midpoint product of step
exponentials, each a Taylor polynomial evaluated by one Horner routine
(`_horner`) in matrix products alone (`_step_exponentials`).  A real
Hamiltonian is real symmetric, so exp(-iY) = cos Y - i sin Y with Y = H dt,
and cos Y and sin Y / Y are polynomials in W = Y Y, taken by real 4x4
products.  `simulate_permutation` builds every step real: h0 and the
x-phase rf term are real in the product basis, and an rf phase phi is
folded into a z-rotation, U(phi) = Rz U(0) Rz^+ with
Rz = exp(-i phi (I1z+I2z)), which holds because h0 commutes with I1z+I2z.
A complex step takes the polynomial of -iY in the real 8x8 form
[[Re, -Im], [Im, Re]].  Both kinds of step come out in that 8x8 form, and
the steps are multiplied in it as a pairwise tree: numpy multiplies a stack
of real 8x8 matrices about three times faster than the same stack of
complex 4x4 ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional

import numpy as np

from .core import SINGLET_ORDER, SpinSystemParams
from .protocol import Permutation, TransferMatrix, permutation_matrix

UNITARITY_TOL = 1e-9
HERMITICITY_TOL = 1e-12

#: Default number of piecewise-constant steps across the shaped pulse
#: (18 us per step at the bundled 0.36 s duration, far below the fastest
#: nutation period).
DEFAULT_PULSE_STEPS = 20000

#: Steps exponentiated and multiplied per batch in `propagate`; bounds the
#: working memory (a few (n, 8, 8) float stacks) to a few MB whatever the
#: step count.
_BLOCK_STEPS = 1024

#: Unit round-off of float64, the target of the Taylor remainder bound.
_UNIT_ROUNDOFF = 2.0**-53

_SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
_SY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
_SZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
_E2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class SpinOperatorSet:
    """Single-spin angular momentum operators of the pair (product basis)."""

    i1x: np.ndarray
    i1y: np.ndarray
    i1z: np.ndarray
    i2x: np.ndarray
    i2y: np.ndarray
    i2z: np.ndarray
    #: Columns are the singlet-triplet states in the product basis.
    product_to_st: np.ndarray


@functools.lru_cache(maxsize=1)
def spin_operators() -> SpinOperatorSet:
    r2 = 1.0 / np.sqrt(2.0)
    v = np.array(
        [[0.0, 1.0, 0.0, 0.0],
         [r2, 0.0, r2, 0.0],
         [-r2, 0.0, r2, 0.0],
         [0.0, 0.0, 0.0, 1.0]],
        dtype=complex,
    )
    mats = dict(
        i1x=np.kron(_SX, _E2),
        i1y=np.kron(_SY, _E2),
        i1z=np.kron(_SZ, _E2),
        i2x=np.kron(_E2, _SX),
        i2y=np.kron(_E2, _SY),
        i2z=np.kron(_E2, _SZ),
        product_to_st=v,
    )
    for m in mats.values():  # the set is a shared cached instance
        m.flags.writeable = False
    return SpinOperatorSet(**mats)


def omega_delta(params: SpinSystemParams) -> float:
    """Chemical-shift frequency difference gamma*B0*delta_shift*1e-6, rad/s."""
    return params.gamma * params.b0 * params.delta_shift * 1e-6


def free_hamiltonian(params: SpinSystemParams, offset_hz: float = 0.0) -> np.ndarray:
    """Rotating-frame Hamiltonian of the coupled pair, rad/s, product basis.

    Raises ValueError naming a frequency that is not finite (for example
    2*pi*J at J = 1e308), which would put nan in the zero entries.
    """
    ops = spin_operators()
    w_off = 2.0 * np.pi * offset_hz
    w_d = omega_delta(params)
    w_j = 2.0 * np.pi * params.j_coupling
    for name, w in (("2*pi*offset_hz", w_off), ("omega_delta = gamma*b0*delta_shift*1e-6", w_d),
                    ("2*pi*J", w_j)):
        if not math.isfinite(w):
            raise ValueError(f"non-finite frequency {name} = {w!r} rad/s")
    return (
        w_off * (ops.i1z + ops.i2z)
        + 0.5 * w_d * (ops.i1z - ops.i2z)
        + w_j * (ops.i1x @ ops.i2x + ops.i1y @ ops.i2y + ops.i1z @ ops.i2z)
    )


def ab_spectrum(params: SpinSystemParams) -> list[tuple[float, float]]:
    """The four single-quantum lines of the AB pattern, sorted by frequency.

    Returns (frequency in Hz relative to the spectrum centre, intensity as
    the squared matrix element of I1x+I2x between the eigenstates).  The
    two inner lines are split by sqrt(J^2 + (w_delta/2pi)^2) - J and carry
    the larger intensity; at w_delta = 0 the outer lines vanish exactly.
    """
    h = free_hamiltonian(params, offset_hz=0.0)
    # total Iz is conserved: diagonalize per M sector so the (degenerate)
    # outer states never mix.  Sectors: M=+1 {|aa>}, M=0 {|ab>,|ba>}, M=-1 {|bb>}
    e_up = h[0, 0].real
    e_down = h[3, 3].real
    w, v = np.linalg.eigh(h[1:3, 1:3])
    lines = []
    for k in (0, 1):
        # collective-Ix matrix element is the same for both transitions of
        # each central eigenstate
        amp = float(abs(v[0, k] + v[1, k]) ** 2 / 4.0)
        lines.append((float((e_up - w[k]) / (2.0 * np.pi)), amp))
        lines.append((float((w[k] - e_down) / (2.0 * np.pi)), amp))
    lines.sort(key=lambda fr: fr[0])
    return lines


@dataclass(frozen=True)
class PulseShape:
    """Amplitude-modulated pulse: polynomial profile, peak amplitude, duration.

    Attributes:
        max_amplitude: peak nutation frequency of the waveform in rad/s.
        duration: pulse length in seconds.
        coefficients: the 21 polynomial coefficients of the profile in
            t/duration (arbitrary units; see `apsoc_waveform`).
        offset_hz: carrier offset from the spectrum centre in Hz.
        phase: radiofrequency phase in radians.
    """

    max_amplitude: float = 2.0 * np.pi * 181.0
    duration: float = 0.36
    coefficients: tuple[float, ...] = ()
    offset_hz: float = 0.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        for name in ("max_amplitude", "duration", "offset_hz", "phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) != 21:
            raise ValueError(f"need exactly 21 coefficients, got {len(coeffs)}")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        if not any(coeffs):
            raise ValueError("coefficients must not all be zero (the profile has no peak)")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_file(cls, path, **kwargs) -> "PulseShape":
        """Load coefficients from a text file, one per line (21 lines)."""
        with open(path, encoding="ascii") as fh:
            coeffs = [float(line) for line in fh if line.strip()]
        return cls(coefficients=tuple(coeffs), **kwargs)

    @classmethod
    def default(cls, offset_hz: float = 0.0, phase: float = 0.0) -> "PulseShape":
        """The bundled adiabatic spin-order-conversion shape."""
        text = (
            resources.files("singletcool").joinpath("data/apsoc_coefficients.txt").read_text()
        )
        coeffs = tuple(float(line) for line in text.splitlines() if line.strip())
        return cls(coefficients=coeffs, offset_hz=offset_hz, phase=phase)

    def profile(self, x: float | np.ndarray) -> float | np.ndarray:
        """Horner evaluation of the raw polynomial at x = t/duration.

        Elementwise on arrays, with the same float operations as on a scalar,
        so both give bit-identical values.
        """
        s = 0.0
        for c in reversed(self.coefficients):
            s = s * x + c
        return s

    @functools.cached_property
    def profile_extrema(self) -> tuple[float, float]:
        """(min, max) of the raw polynomial over [0, 1] on a dense grid; not finite on overflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            vals = self.profile(np.linspace(0.0, 1.0, 20001))
            return float(vals.min()), float(vals.max())

    @functools.cached_property
    def profile_peak(self) -> float:
        """max |polynomial| over the pulse, the waveform normalizer; ValueError on overflow."""
        lo, hi = self.profile_extrema
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"pulse profile peak overflows float64 (extrema {lo!r}, {hi!r})")
        return max(abs(lo), abs(hi))


def apsoc_amplitude(shape: PulseShape, t: float | np.ndarray) -> float | np.ndarray:
    """Raw polynomial amplitude max_amplitude * sum_i C_i (t/T)^i, rad/s.

    This is the literal coefficient scaling; the tabulated coefficients are
    not unit-normalized, so the value at t = T is several orders of
    magnitude above the physical peak.  Use `apsoc_waveform` for dynamics.
    ``t`` is a time or an array of times, each in [0, duration]; an array
    gives elementwise the bits of the scalar calls.
    """
    lo, hi = (t.min(), t.max()) if isinstance(t, np.ndarray) else (t, t)
    if not (0.0 <= lo and hi <= shape.duration):
        raise ValueError(f"t = {hi if 0.0 <= lo else lo} outside [0, {shape.duration}]")
    return shape.max_amplitude * shape.profile(t / shape.duration)


def apsoc_waveform(shape: PulseShape, t: float | np.ndarray) -> float | np.ndarray:
    """Physical nutation frequency at time t (or an array of t): peak-normalized profile, rad/s."""
    return apsoc_amplitude(shape, t) / shape.profile_peak


@dataclass(frozen=True)
class Propagator:
    """A 4x4 unitary, validated to 1e-9 in Frobenius norm."""

    u: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.u, dtype=complex, copy=True)
        if arr.shape != (4, 4):
            raise ValueError(f"propagator must be 4x4, got {arr.shape}")
        defect = np.linalg.norm(arr @ arr.conj().T - np.eye(4))
        if not defect <= UNITARITY_TOL:
            raise ValueError(f"propagator is not unitary (defect {defect:.3e})")
        arr.flags.writeable = False
        object.__setattr__(self, "u", arr)

    def __matmul__(self, other: "Propagator") -> "Propagator":
        return Propagator(self.u @ other.u)


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """steps[-1] @ ... @ steps[0] of an (n, d, d) stack, as a pairwise tree."""
    while len(steps) > 1:
        even = len(steps) - len(steps) % 2
        steps = np.concatenate([steps[1:even:2] @ steps[0:even:2], steps[even:]])
    return steps[0]


def _taylor_degree(theta: float) -> int:
    """Smallest q >= 1 whose Taylor remainder sum_{j>q} theta^j/j! is below round-off.

    The tail is bounded by its first term times the geometric factor
    1/(1 - theta/(q+2)); theta must be at most 1.
    """
    q, term = 1, theta * theta / 2.0  # term = theta^(q+1)/(q+1)!
    while term > _UNIT_ROUNDOFF * (1.0 - theta / (q + 2)):
        q += 1
        term *= theta / (q + 1)
    return q


def _step_exponentials(h: np.ndarray, dt: float, h_norms: np.ndarray) -> np.ndarray:
    """exp(-i h dt) of an (m, 4, 4) Hermitian stack by matrix products alone.

    Each exponential is returned in the real 8x8 form [[Re U, -Im U],
    [Im U, Re U]]: U = u[:4, :4] + 1j*u[4:, :4].  That is also the real form
    of z = -i h dt, whose Frobenius norm is sqrt(2)*|h|_F*|dt|; ``h_norms``
    are the |h|_F.  The Taylor polynomial of the degree `_taylor_degree`
    picks for the largest of these norms stands in for exp(z); norms above 1
    are first halved s times and the result squared back.  Both branches
    evaluate it with `_horner`.  A real stack is real symmetric, so
    exp(-i h dt) = cos Y - i sin Y with Y = h dt.  With W = Y Y, the even
    terms sum to cos Y = sum_k (-1)^k W^k/(2k)! over 2k <= q and the odd ones
    to sin Y = Y sum_k (-1)^k W^k/(2k+1)! over 2k+1 <= q, by real 4x4
    products, written as [[cos Y, sin Y], [-sin Y, cos Y]].  A complex stack
    takes the polynomial of z itself, in the 8x8 form.
    """
    theta = math.sqrt(2.0) * abs(dt) * float(h_norms.max())
    if not math.isfinite(theta):
        if np.isfinite(h).all():  # entries above ~1e154 square past the largest double
            raise ValueError(f"step norm of a finite Hamiltonian overflows (theta = {theta!r})")
        raise ValueError(f"non-finite Hamiltonian step norm (theta = {theta!r})")
    s = math.ceil(math.log2(theta)) if theta > 1.0 else 0
    q = _taylor_degree(theta / 2.0**s)
    dt /= 2.0**s
    p = np.empty((len(h), 8, 8))
    if np.isrealobj(h):
        y = dt * h
        w = y @ y
        cos = _horner(w, [(-1) ** k / math.factorial(2 * k) for k in range(q // 2 + 1)])
        sin = y @ _horner(w, [(-1) ** k / math.factorial(2 * k + 1) for k in range((q + 1) // 2)])
        p[:, :4, :4] = p[:, 4:, 4:] = cos
        p[:, :4, 4:] = sin
        p[:, 4:, :4] = -sin
    else:
        p[:, :4, :4] = p[:, 4:, 4:] = dt * h.imag
        p[:, :4, 4:] = dt * h.real
        p[:, 4:, :4] = -p[:, :4, 4:]
        p = _horner(p, [1.0 / math.factorial(j) for j in range(q + 1)])
    for _ in range(s):
        p = p @ p
    return p


def _horner(x: np.ndarray, coeffs: list[float]) -> np.ndarray:
    """sum_j coeffs[j] x^j of a real (m, d, d) stack, by Horner.

    c_0 + x (c_1 + x (... + x c_n)), each coefficient added to the diagonal
    alone: n - 1 batched products at degree n >= 1, none at degree 0.
    """
    m, d, _ = x.shape
    p = coeffs[-1] * x if len(coeffs) > 1 else np.zeros_like(x)
    for c in coeffs[-2:0:-1]:
        p.reshape(m, d * d)[:, :: d + 1] += c
        p = x @ p
    p.reshape(m, d * d)[:, :: d + 1] += coeffs[0]
    return p


def _midpoint_propagator(
    hamiltonians_at: Callable[[np.ndarray], np.ndarray],
    t_span: tuple[float, float],
    n_steps: int,
) -> Propagator:
    """Midpoint-rule propagator from a batched Hamiltonian builder.

    ``hamiltonians_at`` maps an array of m midpoint times to an (m, 4, 4)
    stack of Hermitian Hamiltonians; it is called on blocks of at most
    `_BLOCK_STEPS` consecutive steps.  The running product is kept in real
    8x8 form.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    t0, t1 = t_span
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got {t_span!r}")
    dt = (t1 - t0) / n_steps
    u = np.eye(8)  # real form of the running product
    for start in range(0, n_steps, _BLOCK_STEPS):
        k = np.arange(start, min(start + _BLOCK_STEPS, n_steps))
        h = hamiltonians_at(t0 + (k + 0.5) * dt)
        with np.errstate(over="ignore"):  # an overflowing norm is named by _step_exponentials
            norms = np.linalg.norm(h, axis=(-2, -1))
        u = _ordered_product(_step_exponentials(h, dt, norms)) @ u
    return Propagator(u[:4, :4] + 1j * u[4:, :4])


def propagate(
    hamiltonian_of_t: Callable[[float], np.ndarray],
    t_span: tuple[float, float],
    n_steps: int,
) -> Propagator:
    """Time-ordered evolution under a piecewise-constant midpoint rule.

    U = prod_k exp(-i H(t_mid,k) dt), latest factor leftmost, with
    t_mid,k = t0 + (k + 0.5) dt.  Second-order accurate in the step size for
    smooth H(t).  The steps are processed in blocks of `_BLOCK_STEPS`: each
    block's Hamiltonians are checked for Hermiticity, exponentiated together
    by a Taylor polynomial (`_step_exponentials`, matrix products only) and
    multiplied as a pairwise tree in real 8x8 form, so memory stays bounded
    whatever ``n_steps`` is.  A callable that returns real arrays is
    exponentiated as cos/sin by real 4x4 products, a complex one (even with
    a zero imaginary part) in the real 8x8 form.  The result differs from a
    step-by-step product of exact exponentials only by round-off.
    """

    def hamiltonians_at(times: np.ndarray) -> np.ndarray:
        stack = np.array([hamiltonian_of_t(t) for t in times.tolist()])
        if stack.shape[1:] != (4, 4):
            raise ValueError(
                f"hamiltonian_of_t must return a 4x4 matrix, got shape {stack.shape[1:]}"
            )
        # both sides of defect <= tol * max(1, |H|) divided by max(1, largest |entry|), so
        # that no norm overflows: a huge non-Hermitian matrix is named as one
        with np.errstate(over="ignore"):  # as in _midpoint_propagator
            scale = np.maximum(1.0, np.abs(stack).max(axis=(-2, -1)))
            scaled = stack / scale[:, None, None]
            defect = np.linalg.norm(scaled - scaled.conj().swapaxes(-1, -2), axis=(-2, -1))
            norms = np.linalg.norm(scaled, axis=(-2, -1))
        if not np.all(defect <= HERMITICITY_TOL * np.maximum(1.0 / scale, norms)):
            raise ValueError("hamiltonian_of_t returned a non-Hermitian matrix")
        return stack

    return _midpoint_propagator(hamiltonians_at, t_span, n_steps)


def collective_rotation(angle: float, phase: float) -> Propagator:
    """Hard pulse exp(-i*angle*(Ix cos(phase) + Iy sin(phase))), collective."""
    ops = spin_operators()
    axis = (ops.i1x + ops.i2x) * np.cos(phase) + (ops.i1y + ops.i2y) * np.sin(phase)
    w, v = np.linalg.eigh(axis)
    return Propagator((v * np.exp(-1j * w * angle)) @ v.conj().T)


def composite_pulse_propagator(sign: int = +1, amplitude_scale: float = 1.0) -> Propagator:
    """Composite 90-degree pulse: 180 at phase sign*30, then 90 at sign*150.

    At amplitude_scale = 1 it rotates collective x-magnetization onto the
    -z axis for sign = +1 (+z for sign = -1), and it stays close to that
    target under amplitude miscalibration (the scale multiplies both flip
    angles).
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if not 0.0 < amplitude_scale < math.inf:
        raise ValueError(f"amplitude_scale must be finite and positive, got {amplitude_scale!r}")
    u1 = collective_rotation(np.pi * amplitude_scale, sign * np.deg2rad(30.0))
    u2 = collective_rotation(0.5 * np.pi * amplitude_scale, sign * np.deg2rad(150.0))
    return u2 @ u1


def magnetization_overlap(prop: Propagator, sign: int = +1) -> float:
    """Overlap of U (I1x+I2x) U+ with the target -sign*(I1z+I2z), in [-1, 1]."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    ops = spin_operators()
    ix = ops.i1x + ops.i2x
    iz = ops.i1z + ops.i2z
    rotated = prop.u @ ix @ prop.u.conj().T
    return float(np.real(np.trace(rotated @ (-sign * iz))) / 2.0)


#: Carrier offsets (Hz) of the shaped pulse for each population cycle:
#: the 1->2->4->1 cycle uses the carrier below the spectrum centre.
CARRIER_OFFSETS = {Permutation.PI124: -35.0, Permutation.PI142: +35.0}
_COMPOSITE_SIGNS = {Permutation.PI124: +1, Permutation.PI142: -1}


def _shaped_pulse_propagator(
    shape: PulseShape, params: SpinSystemParams, n_steps: int, frame_sign: int
) -> Propagator:
    """The shaped pulse alone, by midpoint propagation of real steps and a z-rotation."""
    shape.profile_peak  # rejects an overflowing profile before any step, with no warning
    # carrier displaced by +x Hz puts the spins at -x Hz in its frame
    spin_offset_hz = -frame_sign * shape.offset_hz
    ops = spin_operators()
    # both are real in the product basis, so every step takes the real path
    # of `_step_exponentials`
    h0 = free_hamiltonian(params, offset_hz=spin_offset_hz).real
    rf_x = (ops.i1x + ops.i2x).real

    def hamiltonians_at(times: np.ndarray) -> np.ndarray:
        return h0 + apsoc_waveform(shape, times)[:, None, None] * rf_x

    u_x = _midpoint_propagator(hamiltonians_at, (0.0, shape.duration), n_steps).u
    # h0 commutes with Iz = I1z + I2z, so the pulse at phase phi is the x-phase
    # pulse turned about z: U = Rz U_x Rz^+ with Rz = exp(-i phi Iz) diagonal
    rz = np.exp(-1j * shape.phase * np.diag(ops.i1z + ops.i2z).real)
    return Propagator(u_x * np.outer(rz, rz.conj()))


def simulate_permutation(
    kind: Permutation,
    params: SpinSystemParams,
    shape: Optional[PulseShape] = None,
    n_steps: int = DEFAULT_PULSE_STEPS,
    frame_sign: int = +1,
) -> tuple[TransferMatrix, float]:
    """Full pulse sequence of one permutation: shaped pulse, then composite 90.

    The population-transfer matrix T_st = |<s|U|t>|^2 is returned in the
    singlet-triplet basis together with the fidelity trace(P^T T)/4
    against the target permutation matrix P.  T is doubly stochastic for
    any unitary U.

    ``frame_sign`` flips the Larmor-sign bookkeeping (spin offset and
    composite-pulse phases); flipping it makes each sequence realize the
    opposite cycle.
    """
    if kind not in (Permutation.PI124, Permutation.PI142):
        raise ValueError(f"no pulse sequence for permutation {kind!r}")
    if frame_sign not in (+1, -1):
        raise ValueError("frame_sign must be +1 or -1")
    if shape is None:
        shape = PulseShape.default(offset_hz=CARRIER_OFFSETS[kind])
    u_pulse = _shaped_pulse_propagator(shape, params, n_steps, frame_sign)
    u_comp = composite_pulse_propagator(sign=frame_sign * _COMPOSITE_SIGNS[kind])
    u_total = u_comp @ u_pulse

    v = spin_operators().product_to_st
    u_st = v.conj().T @ u_total.u @ v
    transfer = np.abs(u_st) ** 2
    target = permutation_matrix(kind).m
    fidelity = float(np.trace(target.T @ transfer) / 4.0)
    # column sums inherit the propagator's unitarity budget, not the strict
    # population-algebra tolerance
    return TransferMatrix(transfer, label=f"pulse_{kind.value}", tol=UNITARITY_TOL), fidelity


#: Singlet-order operator in the singlet-triplet basis (unit Frobenius norm,
#: traceless); its expectation on a diagonal state is the SO observable.
SO_OPERATOR_ST = np.diag(SINGLET_ORDER.eigenvalues).astype(complex)


def t00_project(rho: np.ndarray) -> np.ndarray:
    """Ideal rank-0 filter: keep only the identity and singlet-order parts.

    Operates on a Hermitian unit-trace density operator in the
    singlet-triplet basis.  All coherences and every population pattern
    orthogonal to singlet order (Zeeman order included) are zeroed; the
    projection is idempotent and trace-preserving.
    """
    arr = np.asarray(rho, dtype=complex)
    if arr.shape != (4, 4):
        raise ValueError(f"density operator must be 4x4, got {arr.shape}")
    if not np.linalg.norm(arr - arr.conj().T) <= 1e-9:
        raise ValueError("density operator must be Hermitian")
    if not abs(np.trace(arr) - 1.0) <= 1e-9:
        raise ValueError("density operator must have unit trace")
    so_part = np.real(np.trace(SO_OPERATOR_ST @ arr))  # tr(Q^2) = 1
    return np.trace(arr) * np.eye(4, dtype=complex) / 4.0 + so_part * SO_OPERATOR_ST
