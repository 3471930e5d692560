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
simplex.  Every reset is one expression in two decay factors (`_reset`): the
ideal engine (`ideal_engine`) resets with Theta, the kinetic one
(`kinetics.kinetic_engine`) with the relaxation map of a finite interval.  The
engines run on Python floats, and on numpy arrays for a stack of intervals; a list
of intervals is pumped one at a time on floats, so only a stack imports numpy.
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
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, NamedTuple

from .core import (N_SO, N_ZO, POPULATION_TOL, PopulationVector, _check_populations, _Checked,
                   measure_order)

if TYPE_CHECKING:
    import numpy as np

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


#: Each permutation as a row gather: (P @ x)[i] = x[rows[i]] for its 0/1 matrix P.
_PERM_ROWS = {
    Permutation.PI124: (3, 0, 2, 1),
    Permutation.PI142: (1, 3, 2, 0),
    Permutation.PI12: (1, 0, 2, 3),
}


def _perm_matrix(label: Permutation) -> np.ndarray:
    """The 0/1 matrix of a permutation: row i is the unit row of column rows[i]."""
    import numpy as np

    return np.eye(4)[list(_PERM_ROWS[label])]


def _reset_matrix(eps: float) -> np.ndarray:
    """Theta(eps) as a raw array, unvalidated (see `ideal_reset`)."""
    import numpy as np

    m = np.zeros((4, 4))
    m[0, 0] = 1.0
    m[1:, 1:] = (np.array([1.0 + eps, 1.0, 1.0 - eps]) / 3.0)[:, None]
    return m


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
        import numpy as np

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
    if label not in _PERM_ROWS:
        raise ValueError(f"unknown permutation label {label!r}")
    return TransferMatrix(_perm_matrix(label), label=label.value)


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
    m = _perm_matrix(Permutation.PI142) @ theta @ _perm_matrix(Permutation.PI124) @ theta
    return TransferMatrix(m, label=f"cycle(eps={eps!r})")


#: Each permutation as a gather of a state's four deviations (see `_pump`).
_GATHER = {label: itemgetter(*rows) for label, rows in _PERM_ROWS.items()}

#: The pump's permutations, applied in turn: pi_124 first.
_CYCLE = (_GATHER[Permutation.PI124], _GATHER[Permutation.PI142])

#: The decay factors (a, b) of the ideal reset Theta (see `_reset`).
IDEAL_DECAY = (0.0, -1.0)


def _reset(delta: tuple, a: float | np.ndarray, b: float | np.ndarray, s: float) -> tuple:
    """One reset interval with decay factors (a, b), on deviations from uniform.

    The map is I + a (Theta0 - P0) + b (I - Theta0), Theta0 and P0 the triplet reset and
    the thermal projector at eps = 0, applied to x = delta - source, the departure from the
    thermal deviation (0, s, 0, -s); the source is added back after.  With t the triplet
    mean of x it reads, in components,

        y0 = x0 + 3/4 a (x0 - t),    yi = xi - 1/4 a (x0 - t) + b (xi - t),

    each operation written out in one order, so that Python floats and numpy arrays (of
    the factors' shape) give the same bits.  The kinetic engine's factors are
    expm1(-k_S tau) and expm1(-(k_T + k_S) tau); the ideal engine's are `IDEAL_DECAY`.
    """
    d0, d1, d2, d3 = delta
    x1, x3 = d1 - s, d3 + s
    t = (x1 + d2 + x3) / 3.0
    c = a * (d0 - t)
    q = 0.25 * c
    return (d0 + 0.75 * c, s + (x1 - q + b * (x1 - t)), d2 - q + b * (d2 - t),
            x3 - q + b * (x3 - t) - s)


def _pump(n_p: int, a: float | np.ndarray, b: float | np.ndarray, s: float) -> list[tuple]:
    """Deviations from uniform after 0..n_p pump permutations from thermal, one state each.

    The steps are those of the module docstring.  The pump starts at the thermal deviation
    (0, s, 0, -s), and each reset is `_reset` with decay factors (a, b), Python floats for
    one interval or arrays for a stack of them, which pumps each element at once.  A state
    is a tuple of four deviations, each a float or an array of the factors' shape; each
    call returns a new list of n_p + 1 states.  A permutation is a gather of the four.

    Each step depends only on the parity of its count, so once a state is bit-equal to an
    earlier state of the same parity, every later state repeats with the period between
    them, bit for bit.  Round-off settles the pump into such an exact cycle, mostly of
    period 2, sometimes 4 and rarely longer.  The loop stops at the first repeat, found by a
    hash of each state, and fills the remaining states with the cycle (the same tuples), so
    the output is that of the full step walk.
    Floats compare by value, which is by bits here: no state holds a -0.0, and a nan
    never repeats.
    """
    if n_p < 0:
        raise ValueError(f"n_p must be >= 0, got {n_p}")
    zero = a - a  # 0.0 in the shape of the factors
    state = (zero, zero + s, zero, zero - s)
    try:
        out = [state] * (n_p + 1)
    except (MemoryError, OverflowError):
        raise MemoryError(f"Unable to allocate the {n_p + 1} states of the pump") from None
    bits = tuple if isinstance(zero, float) else b"".join  # arrays compare by their bytes
    # a tuple of floats is its own key; a stack's key is the hash of its bytes
    key = bits if isinstance(zero, float) else lambda d: hash(b"".join(d))
    seen = ({key(state): 0}, {})  # the first index of each key, by parity
    for k in range(1, n_p + 1):
        state = _CYCLE[(k - 1) % 2](_reset(state, a, b, s))
        out[k] = state
        j = seen[k % 2].setdefault(key(state), k)
        if j < k and bits(out[j]) == bits(state):  # else two hashes collided: no stop yet
            # from here on every state is the state k - j steps back: copy the cycle forward,
            # twice as many states each time, as the stride k - j stays a multiple of the period
            while k < n_p:
                m = min(k - j, n_p - k)
                out[k + 1:k + 1 + m] = out[j + 1:j + 1 + m]
                k += m
            break
    return out


def check_simplex(*pumps: list[tuple]) -> None:
    """PopulationVector's checks (`core._check_populations`) on every state of one pump or
    more, deviations from uniform (see `_pump`); the first population vector to fail, in
    step order, then in the order of the pumps and in C order over a stack, raises its
    ValueError.  States of Python floats are checked without numpy."""
    # the pump fills its tail with a cycle's states, the same tuples again, so a state that
    # is the state a period back passes with it: only the states before that tail are checked
    ends = []
    for states in pumps:
        end = len(states)
        period = next((p for p in range(1, end) if states[-1 - p] is states[-1]), end)
        while end > period and states[end - 1] is states[end - 1 - period]:
            end -= 1
        ends.append(end)
    # a state with every population >= 0 and a sum within tol/2 of 1 passes whatever the
    # round-off, and a nan fails the sum; only the other states go to the full checks.
    # The states are screened 64 steps at a time, which bounds the memory of a stack's screen.
    for i in range(0, max(ends, default=0), 64):
        rows = []  # (step, pump, deviations) of each population vector the screen leaves
        for n, (states, end) in enumerate(zip(pumps, ends)):
            block = states[i:min(i + 64, end)]
            if not block:
                continue
            if isinstance(block[0][0], float):
                rows += [(k, n, d) for k, d in enumerate(block, i)
                         if not (min(d) >= -0.25 and abs(sum(d)) <= POPULATION_TOL / 2)]
                continue
            import numpy as np

            arr = np.array(block)  # axes: state, deviation, then those of the stack
            sums = arr[:, 0] + arr[:, 1] + arr[:, 2] + arr[:, 3]
            if not (arr.min() >= -0.25 and abs(sums).max() <= POPULATION_TOL / 2):
                rows += [(k, n, row) for k, state in enumerate(np.moveaxis(arr, 1, -1), i)
                         for row in state.reshape(-1, 4).tolist()]
        for _, _, row in sorted(rows, key=itemgetter(0, 1)):
            _check_populations([0.25 + x for x in row])


class _EngineFields(NamedTuple):
    eps: float
    decay: Callable[[float | np.ndarray], tuple]
    ts: float


class PopulationEngine(_Checked, _EngineFields):
    """The protocol's population map at polarization eps: pump, signal readout, enhancement.

    ``decay(tau)`` gives the decay factors (a, b) of `_reset` for a reset interval of
    duration tau: Python floats for one interval, arrays for an array of durations.
    ``ts`` is the singlet lifetime, which scales the signal after free evolution.  Every
    state it returns is checked on the simplex.  Rejects |eps| >= 1, and
    0 < |eps| < `MIN_EPS`, for both engines and every population entry point.
    """

    __slots__ = ()

    def __new__(cls, eps, decay, ts=math.inf):
        if abs(eps) >= 1.0:
            raise ValueError(f"|eps| = {abs(eps)} >= 1")
        if 0.0 < abs(eps) < MIN_EPS:
            raise ValueError(f"|eps| = {abs(eps)!r} < 2**-1018: eps/16 is not a normal float")
        return super().__new__(cls, eps, decay, ts)

    def pump(self, n_p: int, tau: float | np.ndarray | list[float] = 0.0) -> list:
        """`_pump` of n_p permutations from thermal, with resets of duration tau: its list of
        states for one interval or for an array of them, pumped as one stack.  A list of
        intervals is pumped one at a time on Python floats, which is bit-equal to their
        stack, and gives one list of states per interval; its states are checked in the
        stack's order, step by step and then interval by interval."""
        grid = isinstance(tau, list)
        pumps = [_pump(n_p, *self.decay(t), 0.25 * self.eps) for t in (tau if grid else [tau])]
        check_simplex(*pumps)
        return pumps if grid else pumps[0]

    def signal(self, delta: tuple, tau_ev: float = 0.0) -> float | np.ndarray:
        """Signal of a pumped state (a float, or an array for a stack) after evolving for
        tau_ev."""
        return self.signal_of_so(_so_of_deviation(delta), tau_ev)

    def signal_of_so(self, so: float | np.ndarray, tau_ev: float = 0.0) -> float | np.ndarray:
        """Signal of singlet order so (elementwise on an array) after evolving for tau_ev."""
        return signal_from_singlet_order(so, self.eps) * math.exp(-tau_ev / self.ts)

    def enhance(self, delta: tuple, tau_prime: float = 0.0) -> tuple[tuple, float]:
        """One more reset of duration tau_prime, then pi_12: the state and its ZO."""
        delta = _GATHER[Permutation.PI12](_reset(delta, *self.decay(tau_prime), 0.25 * self.eps))
        check_simplex([delta])
        return delta, N_ZO * (delta[1] - delta[3])

    def zeeman_ratio(self, delta: tuple, tau_prime: float = 0.0) -> float:
        """ZO after the enhancement stage, relative to thermal Zeeman order."""
        return self.enhance(delta, tau_prime)[1] / _zo_eq(self.eps)


def ideal_engine(eps: float) -> PopulationEngine:
    """The ideal engine: every reset is Theta, the relaxation map in its T1 << tau << TS
    limit, whatever tau, and singlet order does not decay.  `PopulationEngine` rejects
    |eps| >= 1."""
    return PopulationEngine(eps, lambda tau: IDEAL_DECAY)


def run_ideal(n_p: int, eps: float) -> PopulationVector:
    """Populations after the ideal pump of n_p permutations from equilibrium.

    First-order engine: the deviation from uniform populations is evolved
    step by step, so `measure_order(run_ideal(n_p, eps), SINGLET_ORDER)`
    reproduces `closed_form_so(n_p, eps)` to machine precision for every
    n_p.
    """
    return PopulationVector([0.25 + d for d in ideal_engine(eps).pump(n_p)[-1]])


def closed_form_so(n_p: int, eps: float) -> float:
    """Singlet order after n_p permutations: (-1)^n_p (eps sqrt3/4)(1 - 3^-n_p)."""
    if n_p < 0:
        raise ValueError(f"n_p must be >= 0, got {n_p}")
    sign = -1.0 if n_p % 2 else 1.0
    return sign * (eps * math.sqrt(3.0) / 4.0) * (1.0 - 3.0 ** (-n_p))


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
    delta = tuple(p - 0.25 for p in p_ss.p.tolist())
    return PopulationVector([0.25 + d for d in ideal_engine(eps).enhance(delta)[0]])


def ideal_signal(n_p: int, eps: float) -> float:
    """Normalized singlet-filtered signal of the ideal pump.

    Detection model: an ideal rank-0 filter keeps only singlet order, which
    is converted to observable magnetization at the unitary efficiency
    sqrt(2/3); the result is normalized to the thermal-equilibrium signal
    of a 90-degree pulse, i.e. signal = sqrt(2/3)*SO/ZO_eq.  The ideal
    steady state gives exactly 1, singlet order at the unitary bound gives
    2/3.
    """
    from .core import SINGLET_ORDER

    so = measure_order(run_ideal(n_p, eps), SINGLET_ORDER)
    return signal_from_singlet_order(so, eps)


def _zo_eq(eps: float) -> float:
    """Thermal Zeeman order eps/(2 sqrt 2), the normalization of every signal and ratio."""
    if eps == 0.0:
        raise ValueError("signal normalization undefined at eps = 0")
    return eps / (2.0 * math.sqrt(2.0))


def _so_of_deviation(delta: tuple) -> float | np.ndarray:
    """SO of a state of deviations from uniform (see `_pump`), elementwise for a stack."""
    d0, d1, d2, d3 = delta
    return N_SO * (d0 - (d1 + d2 + d3) / 3.0)


def signal_from_singlet_order(so: float | np.ndarray, eps: float) -> float | np.ndarray:
    """Normalized signal sqrt(2/3)*SO/ZO_eq for polarization eps, elementwise on an array of SO."""
    sig = math.sqrt(2.0 / 3.0) * so / _zo_eq(eps)
    return sig if getattr(sig, "ndim", 0) else float(sig)
