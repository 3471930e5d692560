import functools
import itertools
import math
import pickle
import re

import numpy as np
import pytest

import singletcool
from singletcool import kinetics, protocol
from singletcool import (
    GAMMA_13C,
    SINGLET_ORDER,
    ZEEMAN_ORDER,
    PopulationVector,
    SpinSystemParams,
    epsilon,
    measure_order,
    thermal_populations,
    unitary_max_order,
)

from conftest import random_populations


class TestSpinSystemParams:
    def test_defaults_valid(self):
        p = SpinSystemParams()
        assert p.j_coupling == 54.141
        assert p.ts > p.t1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"j_coupling": 0.0},
            {"b0": -1.0},
            {"b0": 0.0},
            {"temperature": 0.0},
            {"t1": 0.0},
            {"t1": 10.0, "ts": 10.0},   # degenerate: no relaxation-time separation
            {"t1": 10.0, "ts": 5.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SpinSystemParams(**kwargs)


class TestEpsilon:
    def test_carbon13_at_high_field(self):
        p = SpinSystemParams(gamma=6.7283e7, b0=16.45, temperature=298.0)
        assert epsilon(p) == pytest.approx(2.84e-5, rel=2e-3)

    def test_infinite_temperature_limit(self):
        hot = SpinSystemParams(temperature=1e12)
        assert abs(epsilon(hot)) < 1e-14

    def test_linear_in_gamma(self):
        p1 = SpinSystemParams(gamma=GAMMA_13C)
        p2 = SpinSystemParams(gamma=2 * GAMMA_13C)
        assert epsilon(p2) == 2 * epsilon(p1)

    def test_warns_outside_high_temperature_regime(self):
        p = SpinSystemParams(gamma=1e12)  # eps ~ 0.4
        with pytest.warns(UserWarning):
            epsilon(p)

    def test_underflowing_temperature_gives_infinite_eps(self):
        # k_B*T underflows to 0.0 here; eps is then unbounded, not a ZeroDivisionError
        p = SpinSystemParams(temperature=1e-308)
        with pytest.warns(UserWarning):
            assert epsilon(p) == math.inf


class TestThermalPopulations:
    def test_infinite_temperature(self):
        assert np.array_equal(thermal_populations(0.0).p, np.full(4, 0.25))

    def test_small_polarization(self):
        p = thermal_populations(0.04)
        np.testing.assert_allclose(p.p, [0.25, 0.26, 0.25, 0.24], atol=1e-15)

    @pytest.mark.parametrize("eps", [1.0, -1.0, 2.5])
    def test_domain(self, eps):
        with pytest.raises(ValueError):
            thermal_populations(eps)


class TestPopulationVector:
    def test_clamps_float_dust(self):
        p = PopulationVector(np.array([0.5, 0.5, -1e-13, 1e-13]))
        assert p.p[2] == 0.0
        assert p.p.min() >= 0.0

    def test_rejects_real_negativity(self):
        with pytest.raises(ValueError):
            PopulationVector(np.array([0.5, 0.6, -0.1, 0.0]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            PopulationVector(np.array([0.3, 0.3, 0.3, 0.3]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PopulationVector(np.array([np.nan, 0.25, 0.25, 0.25]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PopulationVector(np.array([1.0, 0.0, 0.0]))

    def test_immutable(self):
        p = thermal_populations(0.01)
        with pytest.raises(ValueError):
            p.p[0] = 1.0


class TestObservableDefinitions:
    def test_fixed_eigenvalue_vectors(self):
        n_zo = 1 / np.sqrt(2)
        n_so = np.sqrt(3) / 2
        np.testing.assert_allclose(ZEEMAN_ORDER.eigenvalues, n_zo * np.array([0, 1, 0, -1]))
        np.testing.assert_allclose(
            SINGLET_ORDER.eigenvalues, n_so * np.array([1, -1 / 3, -1 / 3, -1 / 3])
        )
        assert ZEEMAN_ORDER.normalization == n_zo
        assert SINGLET_ORDER.normalization == n_so


class TestMeasureOrder:
    def test_thermal_zeeman_order(self):
        eps = 3e-5
        zo = measure_order(thermal_populations(eps), ZEEMAN_ORDER)
        assert zo == pytest.approx(eps / (2 * np.sqrt(2)), rel=1e-12)

    def test_no_singlet_order_in_equilibrium(self):
        for eps in (0.0, 1e-5, 1e-3, 0.04):
            assert measure_order(thermal_populations(eps), SINGLET_ORDER) == pytest.approx(
                0.0, abs=1e-18
            )

    def test_pure_singlet(self):
        p = PopulationVector(np.array([1.0, 0.0, 0.0, 0.0]))
        assert measure_order(p, SINGLET_ORDER) == pytest.approx(np.sqrt(3) / 2, rel=1e-15)

    def test_linear_in_populations(self, rng):
        pops = random_populations(rng, 50)
        for obs in (ZEEMAN_ORDER, SINGLET_ORDER):
            for a, b in zip(pops[::2], pops[1::2]):
                lam = 0.37
                mix = PopulationVector(lam * a + (1 - lam) * b)
                expected = lam * measure_order(PopulationVector(a), obs) + (
                    1 - lam
                ) * measure_order(PopulationVector(b), obs)
                assert measure_order(mix, obs) == pytest.approx(expected, abs=1e-14)


def brute_force_max(p: np.ndarray, eigenvalues: np.ndarray) -> float:
    """Exhaustive maximum of the observable over all 24 population permutations."""
    return max(
        math.fsum(eigenvalues * p[list(perm)]) for perm in itertools.permutations(range(4))
    )


class TestUnitaryMaxOrder:
    def test_thermal_singlet_bound(self):
        # sqrt(2/3) * ZO_eq, which simplifies to eps*sqrt(3)/6
        eps = 2e-5
        p_eq = thermal_populations(eps)
        bound = unitary_max_order(p_eq, SINGLET_ORDER)
        assert bound == pytest.approx(np.sqrt(2 / 3) * measure_order(p_eq, ZEEMAN_ORDER), rel=1e-12)
        assert bound == pytest.approx(eps * np.sqrt(3) / 6, rel=1e-12)

    def test_maximally_mixed_is_invariant(self):
        uniform = thermal_populations(0.0)
        for obs in (ZEEMAN_ORDER, SINGLET_ORDER):
            assert unitary_max_order(uniform, obs) == pytest.approx(0.0, abs=1e-16)

    def test_matches_brute_force_exactly(self, rng):
        for p in random_populations(rng, 200):
            pop = PopulationVector(p)
            for obs in (ZEEMAN_ORDER, SINGLET_ORDER):
                assert unitary_max_order(pop, obs) == brute_force_max(p, obs.eigenvalues)

    def test_permutation_invariance(self, rng):
        for p in random_populations(rng, 40):
            base = unitary_max_order(PopulationVector(p), SINGLET_ORDER)
            for perm in itertools.permutations(range(4)):
                shuffled = unitary_max_order(PopulationVector(p[list(perm)]), SINGLET_ORDER)
                assert shuffled == pytest.approx(base, rel=1e-12)

    def test_dominates_signed_value_of_every_permutation(self, rng):
        for p in random_populations(rng, 40):
            pop = PopulationVector(p)
            for obs in (ZEEMAN_ORDER, SINGLET_ORDER):
                bound = unitary_max_order(pop, obs)
                for perm in itertools.permutations(range(4)):
                    value = measure_order(PopulationVector(p[list(perm)]), obs)
                    assert value <= bound + 1e-14

    def test_dominates_magnitude_for_symmetric_spectrum(self, rng):
        # the Zeeman eigenvalues are symmetric about zero, so the signed
        # maximum also bounds the magnitude
        for p in random_populations(rng, 40):
            pop = PopulationVector(p)
            bound = unitary_max_order(pop, ZEEMAN_ORDER)
            for perm in itertools.permutations(range(4)):
                value = measure_order(PopulationVector(p[list(perm)]), ZEEMAN_ORDER)
                assert abs(value) <= bound + 1e-14

    def test_asymmetric_spectrum_can_reach_below_minus_max(self):
        # singlet-order eigenvalues are skewed: for lopsided populations the
        # most negative reachable value exceeds the positive maximum, so the
        # signed bound deliberately does not cap |SO|
        p = np.array([0.4, 0.3, 0.3, 0.0])
        pop = PopulationVector(p)
        most_negative = min(
            measure_order(PopulationVector(p[list(perm)]), SINGLET_ORDER)
            for perm in itertools.permutations(range(4))
        )
        assert abs(most_negative) > unitary_max_order(pop, SINGLET_ORDER)

    def test_thermal_state_magnitude_is_still_capped(self):
        # for the thermal state the reachable extremes are symmetric
        eps = 1e-4
        p = thermal_populations(eps)
        bound = unitary_max_order(p, SINGLET_ORDER)
        arr = p.p
        for perm in itertools.permutations(range(4)):
            value = measure_order(PopulationVector(arr[list(perm)]), SINGLET_ORDER)
            assert abs(value) <= bound + 1e-16


class TestPackageExports:
    def test_every_export_resolves_once(self):
        names = singletcool.__all__
        assert len(names) == len(set(names))
        missing = [name for name in names if not hasattr(singletcool, name)]
        assert missing == []


def _value_types():
    """One instance of each of the package's nine value types."""
    params = SpinSystemParams()
    return [
        params,
        thermal_populations(3e-5),
        ZEEMAN_ORDER,
        singletcool.cycle_matrix(3e-5),
        kinetics.kinetic_engine(params),
        singletcool.calibrate_rates(7.36, 214.0, 3e-5),
        singletcool.run_kinetic(4, 28.0, 5.0, params, enhance=True),
        singletcool.sweep_tau(4, [1.0, 10.0, 100.0], params),
        singletcool.fit_monoexponential(singletcool.decay_curve(4, 28.0, [0, 50, 100], params)),
    ]


def _same(a, b):
    """Equal type and bits, field by field; a partial by its function and arguments."""
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, tuple):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, functools.partial):
        return (a.func, a.args, a.keywords) == (b.func, b.args, b.keywords)
    return type(a) is type(b) and a == b


VALUE_TYPES = _value_types()


class TestValueTypes:
    # the value types are NamedTuples; these pin what their dataclass form promised

    def test_all_nine_are_covered(self):
        assert sorted(type(v).__name__ for v in VALUE_TYPES) == sorted([
            "SpinSystemParams", "PopulationVector", "OrderObservable", "TransferMatrix",
            "PopulationEngine", "RateMatrix", "KineticProtocolResult", "TauSweep", "FitResult",
        ])

    @pytest.mark.parametrize("value", VALUE_TYPES, ids=lambda v: type(v).__name__)
    def test_assignment_raises(self, value):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            value.extra = 1.0  # no instance dict

    @pytest.mark.parametrize("value", VALUE_TYPES, ids=lambda v: type(v).__name__)
    def test_repr_names_every_field(self, value):
        fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in value._fields)
        assert repr(value) == f"{type(value).__name__}({fields})"

    @pytest.mark.parametrize("value", VALUE_TYPES, ids=lambda v: type(v).__name__)
    def test_pickle_round_trips(self, value):
        copy = pickle.loads(pickle.dumps(value))
        assert _same(copy, value)
        for field in copy:
            if isinstance(field, np.ndarray):
                assert not field.flags.writeable

    def test_compares_equal_to_the_tuple_of_its_fields(self):
        params = SpinSystemParams()
        assert params == tuple(params) == tuple(getattr(params, n) for n in params._fields)
        assert SpinSystemParams._field_defaults == params._asdict()

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SpinSystemParams()._replace(t1=-1.0), "t1 must be positive"),
            (lambda: SpinSystemParams()._replace(ts=7.0), "must exceed t1"),
            (lambda: SpinSystemParams()._replace(gamma=math.inf), "gamma must be finite"),
            (lambda: SpinSystemParams._make([0.0, 0.057, 16.45, GAMMA_13C, 298.0, 7.36, 214.0]),
             "j_coupling must be nonzero"),
            (lambda: thermal_populations(0.0)._replace(p=[0.5, 0.5, 0.5, -0.5]),
             "negative population"),
            (lambda: PopulationVector._make([[0.5, 0.5, 0.5, 0.5]]), "populations sum to"),
            (lambda: singletcool.ideal_reset(0.0)._replace(m=2.0 * np.eye(4)), "columns sum to"),
            (lambda: singletcool.TransferMatrix._make([np.eye(3), "", 1e-12]), "must be 4x4"),
            (lambda: kinetics.kinetic_engine(SpinSystemParams())._replace(eps=1.5),
             re.escape("|eps| = 1.5 >= 1")),
            (lambda: protocol.ideal_engine(3e-5)._replace(eps=1e-310), re.escape("2**-1018")),
            (lambda: protocol.PopulationEngine._make([-1.0, None, 1.0]), re.escape("|eps| = 1.0")),
        ],
        ids=["spin t1", "spin ts", "spin gamma", "spin make", "population replace",
             "population make", "transfer replace", "transfer make", "engine replace",
             "engine subnormal", "engine make"],
    )
    def test_replace_and_make_run_the_checks(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize(
        "value, name",
        [
            (thermal_populations(3e-5), "p"),
            (ZEEMAN_ORDER, "eigenvalues"),
            (singletcool.ideal_reset(3e-5), "m"),
            (singletcool.calibrate_rates(7.36, 214.0, 3e-5), "r"),
        ],
        ids=["PopulationVector", "OrderObservable", "TransferMatrix", "RateMatrix"],
    )
    def test_replace_and_make_copy_the_array(self, value, name):
        source = np.array(getattr(value, name))  # a writeable array of the same bits
        for built in (value._replace(**{name: source}),
                      type(value)._make(source if n == name else f
                                        for n, f in zip(value._fields, value))):
            field = getattr(built, name)
            assert _same(field, source)
            assert not np.shares_memory(field, source)
            assert not field.flags.writeable
