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
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, fields

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


@dataclass(frozen=True)
class SpinSystemParams:
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

    j_coupling: float = 54.141
    delta_shift: float = 0.057
    b0: float = 16.45
    gamma: float = GAMMA_13C
    temperature: float = 298.0
    t1: float = 7.36
    ts: float = 214.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
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


@dataclass(frozen=True)
class PopulationVector:
    """Four nonnegative state populations summing to one.

    The entry order is the package-wide state indexing (singlet, |aa>,
    central triplet, |bb>).  Entries within ``POPULATION_TOL`` below zero
    are clamped to exactly zero; larger violations raise.
    """

    p: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.p, dtype=float, copy=True)
        if arr.shape != (4,):
            raise ValueError(f"population vector needs exactly 4 entries, got shape {arr.shape}")
        if arr.min() < -POPULATION_TOL:
            raise ValueError(f"negative population {arr.min():.3e} beyond tolerance")
        if not abs(arr.sum() - 1.0) <= POPULATION_TOL:
            raise ValueError(f"populations sum to {arr.sum()!r}, not 1")
        arr[arr < 0.0] = 0.0
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)

    def as_array(self) -> np.ndarray:
        """Writable copy of the populations."""
        return self.p.copy()


class OrderKind(enum.Enum):
    ZEEMAN = "zeeman"
    SINGLET = "singlet"


@dataclass(frozen=True)
class OrderObservable:
    """A population observable defined by a fixed eigenvalue vector."""

    kind: OrderKind
    normalization: float
    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.eigenvalues, dtype=float, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "eigenvalues", arr)


N_ZO = 1.0 / np.sqrt(2.0)
N_SO = np.sqrt(3.0) / 2.0

ZEEMAN_ORDER = OrderObservable(OrderKind.ZEEMAN, N_ZO, N_ZO * np.array([0.0, 1.0, 0.0, -1.0]))
SINGLET_ORDER = OrderObservable(
    OrderKind.SINGLET, N_SO, N_SO * np.array([1.0, -1.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0])
)


def epsilon(params: SpinSystemParams) -> float:
    """Thermal polarization eps = hbar*gamma*B0/(k_B*T).

    Warns (without failing) when eps exceeds 0.01, where the first-order
    high-temperature treatment used by the engines starts to degrade.
    """
    if params.temperature <= 0.0:
        raise ValueError("temperature must be positive")
    if params.b0 <= 0.0:
        raise ValueError("b0 must be positive")
    # float64 division: where k_B*T underflows to 0 (T below ~1e-300 K), eps is
    # +-inf instead of a ZeroDivisionError
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = float(np.float64(hbar * params.gamma * params.b0) / (k_B * params.temperature))
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
    return PopulationVector(np.array([1.0, 1.0 + eps, 1.0, 1.0 - eps]) / 4.0)


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
    lam = np.sort(obs.eigenvalues)[::-1]
    ps = np.sort(pop.p)[::-1]
    # fsum: exactly-rounded, so the result is independent of pairing order
    # and matches an exhaustive-permutation evaluation bit for bit
    return math.fsum(lam * ps)
