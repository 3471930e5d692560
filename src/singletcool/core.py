"""State space, thermal equilibrium and order observables of a spin-1/2 pair.

The four energy eigenstates of a near-equivalent spin-1/2 pair are indexed
in a fixed order everywhere in this package:

    1: singlet            (|ab> - |ba>)/sqrt(2)
    2: outer triplet      |aa>
    3: central triplet    (|ab> + |ba>)/sqrt(2)
    4: outer triplet      |bb>

Populations are dimensionless and sum to one.  The thermal polarization
parameter

    eps = hbar * gamma * B0 / (k_B * T)

is ~3e-5 for 13C pairs at high field and room temperature.  All population
engines in this package work to first order in eps, which is the regime in
which the high-temperature pumping algebra (and every ratio derived from
it) is exact.

Two scalar observables of the population vector are used throughout:

    Zeeman order   ZO = (p2 - p4)/sqrt(2)            (longitudinal magnetization)
    singlet order  SO = (sqrt(3)/2)(p1 - (p2+p3+p4)/3)

The value types of this package (`SpinSystemParams`, `PopulationVector` and
`OrderObservable` here, and those of `protocol` and `kinetics`) are immutable
``typing.NamedTuple``s.  Derive a changed copy with ``_replace``, not
``dataclasses.replace``; ``_replace`` and ``_make`` run the constructor's checks.
Array fields are read-only copies.  Like any tuple, a value type compares equal
to the plain tuple of its fields.

numpy is imported where an array is built, not with the module: `epsilon`, the
population checks of the engines' states and the population engines of `protocol`
run on Python floats, and ``ZEEMAN_ORDER`` and ``SINGLET_ORDER`` are built on first
access.
"""

from __future__ import annotations

import enum
import math
import warnings
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

#: Exact SI values (2019 redefinition): reduced Planck constant in J s and
#: Boltzmann constant in J/K.
hbar = 6.62607015e-34 / (2 * math.pi)
k_B = 1.380649e-23

#: Magnetogyric ratio of 13C in rad s^-1 T^-1 (overridable per system).
GAMMA_13C = 6.728284e7

#: Tolerance for population positivity / unit-sum checks.  Entries within
#: this distance below zero are clamped to exactly zero (float dust from
#: long matrix products); anything worse is rejected.
POPULATION_TOL = 1e-12


class _Checked:
    """Base of a NamedTuple subclass whose ``__new__`` checks or copies the fields:
    `_make`, and with it `_replace`, go through that constructor."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _SpinSystemFields(NamedTuple):
    j_coupling: float = 54.141
    delta_shift: float = 0.057
    b0: float = 16.45
    gamma: float = GAMMA_13C
    temperature: float = 298.0
    t1: float = 7.36
    ts: float = 214.0


class SpinSystemParams(_Checked, _SpinSystemFields):
    """Physical constants of one spin-1/2 pair and its relaxation times.

    Attributes:
        j_coupling: scalar coupling J in Hz (nonzero).
        delta_shift: chemical-shift difference in ppm.
        b0: static magnetic field in tesla (positive).
        gamma: magnetogyric ratio in rad s^-1 T^-1.
        temperature: sample temperature in kelvin (positive).
        t1: Zeeman-order relaxation time in seconds (positive).
        ts: singlet-order decay time in seconds.  Must exceed t1: the
            pumping protocol relies on relaxation delays tau with
            t1 << tau << ts, which only exist when ts > t1.

    The defaults describe the 13C2 pair the package ships as its reference
    system (J = 54.141 Hz, 0.057 ppm shift difference at 16.45 T,
    T1 = 7.36 s, TS = 214 s).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.j_coupling == 0.0:
            raise ValueError("j_coupling must be nonzero")
        if self.b0 <= 0.0:
            raise ValueError("b0 must be positive")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        if self.t1 <= 0.0:
            raise ValueError("t1 must be positive")
        if self.ts <= self.t1:
            raise ValueError(
                f"ts = {self.ts} must exceed t1 = {self.t1}; the triplet reset "
                "requires a relaxation-time separation"
            )
        return self


def _check_populations(p: list[float]) -> None:
    """PopulationVector's checks on four Python floats: none below -POPULATION_TOL, and
    their sum, added in numpy's order for four, within POPULATION_TOL of 1 (a nan fails
    it).  Raises ValueError with PopulationVector's message."""
    low = min(p)  # a nan in p makes numpy's min nan, which passes: the sum fails it
    if low < -POPULATION_TOL and not any(map(math.isnan, p)):
        raise ValueError(f"negative population {low:.3e} beyond tolerance")
    total = float(p[0] + p[1] + p[2] + p[3])  # a numpy scalar would print as np.float64(...)
    if not abs(total - 1.0) <= POPULATION_TOL:
        raise ValueError(f"populations sum to {total!r}, not 1")


class _PopulationFields(NamedTuple):
    p: np.ndarray


class PopulationVector(_Checked, _PopulationFields):
    """Four nonnegative state populations summing to one.

    The entry order is the package-wide state indexing (singlet, |aa>,
    central triplet, |bb>).  Entries within ``POPULATION_TOL`` below zero
    are clamped to exactly zero; larger violations raise.  ``p`` is a
    read-only copy.
    """

    __slots__ = ()

    def __new__(cls, p):
        import numpy as np

        arr = np.array(p, dtype=float, copy=True)
        if arr.shape != (4,):
            raise ValueError(f"population vector needs exactly 4 entries, got shape {arr.shape}")
        _check_populations(arr.tolist())
        arr[arr < 0.0] = 0.0
        arr.flags.writeable = False
        return super().__new__(cls, arr)


class OrderKind(enum.Enum):
    ZEEMAN = "zeeman"
    SINGLET = "singlet"


class _ObservableFields(NamedTuple):
    kind: OrderKind
    normalization: float
    eigenvalues: np.ndarray


class OrderObservable(_Checked, _ObservableFields):
    """A population observable defined by a fixed eigenvalue vector (a read-only copy)."""

    __slots__ = ()

    def __new__(cls, kind, normalization, eigenvalues):
        import numpy as np

        arr = np.array(eigenvalues, dtype=float, copy=True)
        arr.flags.writeable = False
        return super().__new__(cls, kind, normalization, arr)


N_ZO = 1.0 / math.sqrt(2.0)
N_SO = math.sqrt(3.0) / 2.0

#: The fields of ``ZEEMAN_ORDER`` and ``SINGLET_ORDER``.
_OBSERVABLES = {
    "ZEEMAN_ORDER": (OrderKind.ZEEMAN, N_ZO, [0.0, N_ZO, 0.0, -N_ZO]),
    "SINGLET_ORDER": (OrderKind.SINGLET, N_SO, [N_SO * x for x in (1.0, -1 / 3, -1 / 3, -1 / 3)]),
}


def __getattr__(name: str) -> OrderObservable:
    """``ZEEMAN_ORDER`` and ``SINGLET_ORDER``, built on first access (PEP 562) and kept as
    module attributes: their eigenvalues are a numpy array."""
    if name not in _OBSERVABLES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = OrderObservable(*_OBSERVABLES[name])
    return value


def epsilon(params: SpinSystemParams) -> float:
    """Thermal polarization eps = hbar*gamma*B0/(k_B*T).

    Warns (without failing) when eps exceeds 0.01, where the first-order
    high-temperature treatment used by the engines starts to degrade.
    """
    num, den = hbar * params.gamma * params.b0, k_B * params.temperature
    # IEEE division: where k_B*T underflows to 0 (T below ~1e-300 K), eps is
    # +-inf (nan for gamma = 0) instead of a ZeroDivisionError
    eps = num / den if den else math.copysign(math.inf, num) if num else math.nan
    if abs(eps) > 0.01:
        warnings.warn(
            f"eps = {eps:.3g} is outside the high-temperature regime; "
            "first-order population algebra may be inaccurate",
            stacklevel=2,
        )
    return eps


def thermal_populations(eps: float) -> PopulationVector:
    """Thermal-equilibrium populations (1, 1+eps, 1, 1-eps)/4."""
    if abs(eps) >= 1.0:
        raise ValueError(f"|eps| = {abs(eps)} >= 1: high-temperature expansion invalid")
    return PopulationVector([x / 4.0 for x in (1.0, 1.0 + eps, 1.0, 1.0 - eps)])


def measure_order(pop: PopulationVector, obs: OrderObservable) -> float:
    """Evaluate an order observable on a population vector (linear in p).

    ZO = (p2 - p4)/sqrt(2); SO = (sqrt(3)/2)(p1 - (p2 + p3 + p4)/3).
    """
    p = pop.p
    if obs.kind is OrderKind.ZEEMAN:
        return float(obs.normalization * (p[1] - p[3]))
    return float(obs.normalization * (p[0] - (p[1] + p[2] + p[3]) / 3.0))


def unitary_max_order(pop: PopulationVector, obs: OrderObservable) -> float:
    """Maximum of the observable over all unitary reorderings of the populations.

    Pairing the populations with the observable eigenvalues, both sorted
    descending, maximizes the expectation value over every unitary
    transformation of the state (the attainable extreme is a population
    permutation).  Note this is the signed maximum; for observables with an
    asymmetric spectrum (singlet order) the most negative reachable value
    can exceed it in magnitude.
    """
    lam = sorted(obs.eigenvalues.tolist(), reverse=True)
    ps = sorted(pop.p.tolist(), reverse=True)
    # fsum: exactly-rounded, so the result is independent of pairing order
    # and matches an exhaustive-permutation evaluation bit for bit
    return math.fsum(x * y for x, y in zip(lam, ps))
