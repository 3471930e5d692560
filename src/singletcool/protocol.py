"""Ideal pumping algebra: permutations, triplet reset, cycles, closed forms.

The protocol alternates two instantaneous population manipulations:

* cyclic permutations of the populations of the singlet and the two outer
  triplet states (pi_124 sends 1->2->4->1, pi_142 the reverse), and
* the triplet thermal reset Theta, which restores the three triplet
  populations to the thermal shape (1+eps, 1, 1-eps)/3 of their total while
  leaving the singlet population untouched.

A pump of n_p permutations is the step sequence

    even n_p:  (Theta, pi_124, Theta, pi_142) repeated n_p/2 times
    odd  n_p:  the even sequence for n_p-1, then (Theta, pi_124)

read left to right in chronological order; the enhancement stage is one
more Theta followed by the 1<->2 swap pi_12.  `PopulationEngine` states this
map once: it pumps, reads the signal and enhances, every state checked on the
simplex.  The ideal engine (`ideal_engine`) resets with Theta, the kinetic one
(`kinetics.kinetic_engine`) with the relaxation map of a finite interval.
Applied to thermal equilibrium the singlet order after n_p permutations is

    SO(n_p) = (-1)^n_p * (eps*sqrt(3)/4) * (1 - 3^-n_p)

whose steady-state magnitude eps*sqrt(3)/4 exceeds the unitary bound
sqrt(2/3)*ZO_eq by a factor 3/2: the reset injects fresh entropy from the
bath between permutations, which no unitary sequence can do.

Engine semantics: populations are propagated to first order in eps, by
evolving the deviation from the uniform state with the eps-linear part of
each step.  Full products of the literal transfer matrices acquire eps^2 cross
terms (the reset matrix is affine in eps) that the closed form above does
not contain; dropping them keeps the engine exactly on the closed form and
makes every downstream ratio independent of eps.  ``TransferMatrix``
objects returned by the matrix constructors are the exact literal
matrices, so matrix-level identities hold without truncation.

`TransferMatrix` and `PopulationEngine` are immutable NamedTuples, like every value
type of the package (see `core`): ``_replace`` derives a changed copy and runs the
constructor's checks.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    POPULATION_TOL,
    SINGLET_ORDER,
    ZEEMAN_ORDER,
    PopulationVector,
    _Checked,
    measure_order,
)

COLUMN_SUM_TOL = 1e-12
ENTRY_TOL = 1e-12
#: Smallest nonzero |eps| of a population engine: 16 times the smallest normal double,
#: so that eps/16, and with it the deviations eps/4 and eps/12, stay normal floats.
MIN_EPS = 2.0**-1018


class Permutation(enum.Enum):
    """Labels of the three population permutations used by the protocol."""

    PI124 = "pi124"  # 3-cycle: 1 -> 2 -> 4 -> 1
    PI142 = "pi142"  # 3-cycle: 1 -> 4 -> 2 -> 1
    PI12 = "pi12"    # swap:    1 <-> 2


_PERM_MATRICES = {
    Permutation.PI124: np.array(
        [[0, 0, 0, 1],
         [1, 0, 0, 0],
         [0, 0, 1, 0],
         [0, 1, 0, 0]], dtype=float),
    Permutation.PI142: np.array(
        [[0, 1, 0, 0],
         [0, 0, 0, 1],
         [0, 0, 1, 0],
         [1, 0, 0, 0]], dtype=float),
    Permutation.PI12: np.array(
        [[0, 1, 0, 0],
         [1, 0, 0, 0],
         [0, 0, 1, 0],
         [0, 0, 0, 1]], dtype=float),
}


def _reset_matrix(eps: float) -> np.ndarray:
    """Theta(eps) as a raw array, unvalidated (see `ideal_reset`)."""
    m = np.zeros((4, 4))
    m[0, 0] = 1.0
    m[1:, 1:] = (np.array([1.0 + eps, 1.0, 1.0 - eps]) / 3.0)[:, None]
    return m


#: Triplet reset at eps = 0: singlet row/column untouched, triplet
#: populations replaced by their mean.
RESET0 = _reset_matrix(0.0)

#: Deviation of the thermal state from uniform populations, per unit eps.
THERMAL_DEVIATION = np.array([0.0, 0.25, 0.0, -0.25])

_ONES = np.ones(4)


class _TransferFields(NamedTuple):
    m: np.ndarray
    label: str
    tol: float


class TransferMatrix(_Checked, _TransferFields):
    """A column-stochastic 4x4 matrix acting on population vectors.

    Column j holds the destination distribution of the population of state
    j, so every column sums to one (total population is conserved) and all
    entries are nonnegative.  ``tol`` bounds the accepted column-sum
    deviation: the population-algebra constructors use the strict default,
    while matrices derived from numerically propagated unitaries carry the
    propagator's 1e-9 unitarity budget instead.  ``m`` is a read-only copy.
    """

    __slots__ = ()

    def __new__(cls, m, label="", tol=COLUMN_SUM_TOL):
        arr = np.array(m, dtype=float, copy=True)
        if arr.shape != (4, 4):
            raise ValueError(f"transfer matrix must be 4x4, got {arr.shape}")
        if not arr.min() >= -ENTRY_TOL:
            raise ValueError(f"negative entry {arr.min():.3e} in transfer matrix {label!r}")
        colsums = arr.sum(axis=0)
        if not np.max(np.abs(colsums - 1.0)) <= tol:
            raise ValueError(
                f"transfer matrix {label!r} columns sum to {colsums}, not 1"
            )
        arr[arr < 0.0] = 0.0
        arr.flags.writeable = False
        return super().__new__(cls, arr, label, tol)

    def apply(self, pop: PopulationVector) -> PopulationVector:
        """Exact matrix action p -> m @ p (no first-order truncation)."""
        return PopulationVector(self.m @ pop.p)

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        return TransferMatrix(
            self.m @ other.m, label=f"{self.label}@{other.label}", tol=max(self.tol, other.tol)
        )


def permutation_matrix(label: Permutation) -> TransferMatrix:
    """Exact 0/1 matrix of one of the three protocol permutations."""
    try:
        m = _PERM_MATRICES[label]
    except KeyError:
        raise ValueError(f"unknown permutation label {label!r}") from None
    return TransferMatrix(m, label=label.value)


def ideal_reset(eps: float) -> TransferMatrix:
    """Triplet thermal reset at polarization eps.

    Each triplet column is replaced by the thermal triplet shape
    ((1+eps)/3, 1/3, (1-eps)/3); the singlet row and column are untouched.
    The thermal population vector is an exact fixed point.
    """
    if abs(eps) >= 1.0:
        raise ValueError(f"|eps| = {abs(eps)} >= 1: reset matrix would not be stochastic")
    return TransferMatrix(_reset_matrix(eps), label=f"reset(eps={eps!r})")


def cycle_matrix(eps: float) -> TransferMatrix:
    """One full pump cycle as the exact product pi142 . Theta . pi124 . Theta.

    Rightmost factor acts first, matching the chronological step order
    (Theta, pi124, Theta, pi142).  Being a product of two eps-affine
    matrices, this exact form carries an eps^2 term that the first-order
    engine (`run_ideal`) deliberately drops.
    """
    theta = ideal_reset(eps).m
    m = _PERM_MATRICES[Permutation.PI142] @ theta @ _PERM_MATRICES[Permutation.PI124] @ theta
    return TransferMatrix(m, label=f"cycle(eps={eps!r})")


#: Each permutation as a row gather: (P @ x)[i] = x[rows[i]], exactly, as P is 0/1.
_PERM_ROWS = {label: m.argmax(axis=1) for label, m in _PERM_MATRICES.items()}

#: The pump's permutations, applied in turn: pi_124 first.
_CYCLE = (_PERM_ROWS[Permutation.PI124], _PERM_ROWS[Permutation.PI142])


def _pump(n_p: int, reset: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Deviations from uniform after 0..n_p pump permutations from thermal, as one array.

    The steps are those of the module docstring.  The pump starts at the thermal
    deviation ``source``; each reset maps delta -> source + reset @ (delta - source),
    so the thermal state is a fixed point of every reset.  ``reset`` is one map, or a stack
    of shape (n, 4, 4), which pumps n intervals at once.  Each call fills a new float64
    array of shape (n_p + 1, *reset.shape[:-2], 4), state 0 ``source`` in every batch
    row.  The deviation is carried as a column: a reset is a matrix-vector product, a
    permutation the exact row gather of its 0/1 matrix, taken once per call.

    Each step depends only on the parity of its count, so once a state is bit-equal to
    the state two steps back, every later state repeats with period 2, bit for bit.  The
    loop stops at that exact 2-cycle and fills the remaining states with the last two,
    so the output is that of the full step walk.
    """
    if n_p < 0:
        raise ValueError(f"n_p must be >= 0, got {n_p}")
    out = np.empty((n_p + 1, *reset.shape[:-2], 4))
    out[0] = source
    delta = source = source[:, None]
    steps = [(source.take(rows, axis=-2), reset.take(rows, axis=-2)) for rows in _CYCLE]
    older, last = None, delta.tobytes()  # the bytes of the last two states
    for k in range(n_p):
        gathered_source, gathered_reset = steps[k % 2]
        delta = gathered_source + gathered_reset @ (delta - source)
        out[k + 1] = delta[..., 0]
        key = delta.tobytes()
        if key == older:
            # from here on every state is the state two steps back
            out[k + 2::2] = out[k]
            out[k + 3::2] = out[k + 1]
            break
        older, last = last, key
    return out


def check_simplex(deltas: np.ndarray) -> None:
    """PopulationVector's checks on every row of a (..., 4) stack of deviations from uniform;
    the first row to fail, in C order, raises its ValueError."""
    d = deltas.reshape(-1, 4)
    sums = d @ _ONES
    # rows with every population >= 0 and a sum within tol/2 of 1 pass whatever the round-off;
    # two whole-array reductions screen for them, as numpy reduces a length-4 axis slowly
    if not (d.min() >= -0.25 and sums @ sums <= (POPULATION_TOL / 2) ** 2):
        for row in 0.25 + d:
            PopulationVector(row)


class _EngineFields(NamedTuple):
    eps: float
    reset: Callable[[float | np.ndarray], np.ndarray]
    ts: float


class PopulationEngine(_Checked, _EngineFields):
    """The protocol's population map at polarization eps: pump, signal readout, enhancement.

    ``reset(tau)`` is the map of a reset interval of duration tau, an array of
    durations giving their stack; ``ts`` is the singlet lifetime, which scales the
    signal after free evolution.  Every state it returns is checked on the simplex.
    Rejects |eps| >= 1, and 0 < |eps| < `MIN_EPS`, for both engines and every population
    entry point.
    """

    __slots__ = ()

    def __new__(cls, eps, reset, ts=math.inf):
        if abs(eps) >= 1.0:
            raise ValueError(f"|eps| = {abs(eps)} >= 1")
        if 0.0 < abs(eps) < MIN_EPS:
            raise ValueError(f"|eps| = {abs(eps)!r} < 2**-1018: eps/16 is not a normal float")
        return super().__new__(cls, eps, reset, ts)

    def pump(self, n_p: int, tau: float | np.ndarray = 0.0) -> np.ndarray:
        """`_pump` of n_p permutations from thermal, with resets of duration tau."""
        deltas = _pump(n_p, self.reset(tau), self.eps * THERMAL_DEVIATION)
        check_simplex(deltas)
        return deltas

    def signal(self, deltas: np.ndarray, tau_ev: float = 0.0) -> float | np.ndarray:
        """Signal of pumped deviations (a float for one) after evolving for tau_ev."""
        return self.signal_of_so(_so_of_deviation(deltas), tau_ev)

    def signal_of_so(self, so: float | np.ndarray, tau_ev: float = 0.0) -> float | np.ndarray:
        """Signal of singlet order so (elementwise on an array) after evolving for tau_ev."""
        return signal_from_singlet_order(so, self.eps) * math.exp(-tau_ev / self.ts)

    def enhance(self, delta: np.ndarray, tau_prime: float = 0.0) -> tuple[np.ndarray, float]:
        """One more reset of duration tau_prime, then pi_12: the deviation and its ZO."""
        source = self.eps * THERMAL_DEVIATION
        delta = source + self.reset(tau_prime) @ (delta - source)
        delta = delta.take(_PERM_ROWS[Permutation.PI12], axis=-1)
        check_simplex(delta)
        return delta, float(np.dot(ZEEMAN_ORDER.eigenvalues, delta))

    def zeeman_ratio(self, delta: np.ndarray, tau_prime: float = 0.0) -> float:
        """ZO after the enhancement stage, relative to thermal Zeeman order."""
        return self.enhance(delta, tau_prime)[1] / _zo_eq(self.eps)


def ideal_engine(eps: float) -> PopulationEngine:
    """The ideal engine: every reset is `RESET0`, the relaxation map in its T1 << tau << TS
    limit, whatever tau, and singlet order does not decay.  `PopulationEngine` rejects
    |eps| >= 1."""
    return PopulationEngine(eps, lambda tau: RESET0)


def run_ideal(n_p: int, eps: float) -> PopulationVector:
    """Populations after the ideal pump of n_p permutations from equilibrium.

    First-order engine: the deviation from uniform populations is evolved
    step by step, so `measure_order(run_ideal(n_p, eps), SINGLET_ORDER)`
    reproduces `closed_form_so(n_p, eps)` to machine precision for every
    n_p.
    """
    return PopulationVector(0.25 + ideal_engine(eps).pump(n_p)[-1])


def closed_form_so(n_p: int, eps: float) -> float:
    """Singlet order after n_p permutations: (-1)^n_p (eps sqrt3/4)(1 - 3^-n_p)."""
    if n_p < 0:
        raise ValueError(f"n_p must be >= 0, got {n_p}")
    sign = -1.0 if n_p % 2 else 1.0
    return sign * (eps * np.sqrt(3.0) / 4.0) * (1.0 - 3.0 ** (-n_p))


def ideal_steady_state(eps: float, n_p: int = 20) -> PopulationVector:
    """Even-count pump output with the geometric tail below 1e-9 relative.

    Defined operationally as run_ideal at a large even n_p rather than by
    eigen-decomposition; 3^-20 ~ 3e-10 leaves SO within 1e-9*eps of its
    limit.
    """
    if n_p % 2:
        raise ValueError("steady state is defined for even permutation counts")
    return run_ideal(n_p, eps)


def enhance_zeeman(p_ss: PopulationVector, eps: float) -> PopulationVector:
    """Convert pumped singlet order to Zeeman order: pi12 . Theta(eps) . p.

    A further triplet reset followed by the 1<->2 population swap.  Fed the
    even-n_p steady state this yields ZO = 3*eps/(4*sqrt(2)), i.e. 3/2 of
    the thermal Zeeman order; intended for even-n_p states (not checked).
    First-order semantics, like `run_ideal`, and like it rejects |eps| >= 1.
    """
    return PopulationVector(0.25 + ideal_engine(eps).enhance(p_ss.p - 0.25)[0])


def ideal_signal(n_p: int, eps: float) -> float:
    """Normalized singlet-filtered signal of the ideal pump.

    Detection model: an ideal rank-0 filter keeps only singlet order, which
    is converted to observable magnetization at the unitary efficiency
    sqrt(2/3); the result is normalized to the thermal-equilibrium signal
    of a 90-degree pulse, i.e. signal = sqrt(2/3)*SO/ZO_eq.  The ideal
    steady state gives exactly 1, singlet order at the unitary bound gives
    2/3.
    """
    so = measure_order(run_ideal(n_p, eps), SINGLET_ORDER)
    return signal_from_singlet_order(so, eps)


def _zo_eq(eps: float) -> float:
    """Thermal Zeeman order eps/(2 sqrt 2), the normalization of every signal and ratio."""
    if eps == 0.0:
        raise ValueError("signal normalization undefined at eps = 0")
    return eps / (2.0 * np.sqrt(2.0))


def _so_of_deviation(delta: np.ndarray) -> float | np.ndarray:
    """SO of a deviation, or elementwise the SOs of a (..., 4) stack of them."""
    d0, d1, d2, d3 = delta[..., 0], delta[..., 1], delta[..., 2], delta[..., 3]
    so = SINGLET_ORDER.normalization * (d0 - (d1 + d2 + d3) / 3.0)
    return so if np.ndim(so) else float(so)


def signal_from_singlet_order(so: float | np.ndarray, eps: float) -> float | np.ndarray:
    """Normalized signal sqrt(2/3)*SO/ZO_eq for polarization eps, elementwise on an array of SO."""
    sig = np.sqrt(2.0 / 3.0) * so / _zo_eq(eps)
    return sig if np.ndim(sig) else float(sig)
