import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singletcool
from singletcool import protocol
from singletcool import (
    SINGLET_ORDER,
    ZEEMAN_ORDER,
    Permutation,
    PopulationVector,
    SpinSystemParams,
    TransferMatrix,
    closed_form_so,
    cycle_matrix,
    decay_curve,
    enhance_zeeman,
    ideal_reset,
    ideal_signal,
    ideal_steady_state,
    measure_order,
    permutation_matrix,
    run_ideal,
    run_kinetic,
    signal_from_singlet_order,
    sweep_tau,
    thermal_populations,
    unitary_max_order,
    zeeman_enhancement_ratio,
)
from singletcool.kinetics import _decay_factors, _map_parts
from singletcool.protocol import IDEAL_DECAY, _pump, check_simplex, ideal_engine

from conftest import random_populations

PI124_EXPECTED = np.array([[0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=float)
PI142_EXPECTED = np.array([[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [1, 0, 0, 0]], dtype=float)
PI12_EXPECTED = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=float)
#: The triplet reset at eps = 0, and the thermal deviation from uniform per unit eps.
RESET0 = ideal_reset(0.0).m
THERMAL_DEVIATION = np.array([0.0, 0.25, 0.0, -0.25])


def _factors(tau):
    """Decay factors of the relaxation maps of one system (k_T = 0.13, k_S = 0.0047 per s)."""
    return _decay_factors(0.13, 0.0047, tau)


def _rows(states):
    """Each pumped state, four floats or four arrays, as one array of shape (..., 4)."""
    return [np.moveaxis(np.array(d), 0, -1) for d in states]


def _states(deltas):
    """The rows of an array of deviations, shape (n, ..., 4), as the states of a pump."""
    return [tuple(np.moveaxis(d, -1, 0)) for d in deltas]


class TestPermutationMatrices:
    def test_exact_matrices(self):
        assert np.array_equal(permutation_matrix(Permutation.PI124).m, PI124_EXPECTED)
        assert np.array_equal(permutation_matrix(Permutation.PI142).m, PI142_EXPECTED)
        assert np.array_equal(permutation_matrix(Permutation.PI12).m, PI12_EXPECTED)

    def test_zero_one_structure(self):
        for label in Permutation:
            m = permutation_matrix(label).m
            assert set(np.unique(m)) <= {0.0, 1.0}
            assert np.array_equal(m.sum(axis=0), np.ones(4))
            assert np.array_equal(m.sum(axis=1), np.ones(4))

    def test_inverse_pair(self):
        prod = permutation_matrix(Permutation.PI124) @ permutation_matrix(Permutation.PI142)
        assert np.array_equal(prod.m, np.eye(4))

    def test_three_cycle(self):
        p = permutation_matrix(Permutation.PI124)
        assert np.array_equal((p @ p @ p).m, np.eye(4))

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            permutation_matrix("pi999")

    def test_action_on_thermal(self):
        eps = 1e-4
        p_eq = thermal_populations(eps)
        moved = permutation_matrix(Permutation.PI124).apply(p_eq)
        np.testing.assert_allclose(
            moved.p, np.array([1 - eps, 1.0, 1.0, 1 + eps]) / 4, rtol=0, atol=1e-18
        )
        assert measure_order(moved, SINGLET_ORDER) == pytest.approx(
            -np.sqrt(3) * eps / 6, rel=1e-12
        )


class TestIdealReset:
    def test_matrix_entries(self):
        eps = 0.3
        m = ideal_reset(eps).m
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0, (1 + eps) / 3, (1 + eps) / 3, (1 + eps) / 3],
                [0, 1 / 3, 1 / 3, 1 / 3],
                [0, (1 - eps) / 3, (1 - eps) / 3, (1 - eps) / 3],
            ]
        )
        np.testing.assert_allclose(m, expected, atol=1e-16)

    def test_thermal_is_exact_fixed_point(self):
        for eps in (0.0, 1e-5, 1e-3, 0.1):
            p_eq = thermal_populations(eps)
            after = ideal_reset(eps).apply(p_eq)
            np.testing.assert_allclose(after.p, p_eq.p, rtol=0, atol=1e-16)

    def test_unpolarized_reset_averages_triplets(self, rng):
        for p in random_populations(rng, 20):
            after = ideal_reset(0.0).apply(PopulationVector(p))
            s = p[1] + p[2] + p[3]
            np.testing.assert_allclose(after.p, [p[0], s / 3, s / 3, s / 3], atol=1e-15)

    def test_singlet_population_invariant(self, rng):
        for p in random_populations(rng, 50):
            eps = float(rng.uniform(-0.5, 0.5))
            after = ideal_reset(eps).apply(PopulationVector(p))
            assert after.p[0] == pytest.approx(p[0], rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            ideal_reset(1.0)


class TestCycleMatrix:
    def test_column_stochastic(self):
        m = cycle_matrix(3e-5).m
        np.testing.assert_allclose(m.sum(axis=0), np.ones(4), atol=1e-14)
        assert m.min() >= 0.0

    def test_unpolarized_cycle_fixes_uniform(self):
        uniform = np.full(4, 0.25)
        np.testing.assert_allclose(cycle_matrix(0.0).m @ uniform, uniform, atol=1e-16)

    def test_matches_defining_product(self):
        eps = 1e-3
        theta = ideal_reset(eps).m
        expected = PI142_EXPECTED @ theta @ PI124_EXPECTED @ theta
        np.testing.assert_allclose(cycle_matrix(eps).m, expected, atol=1e-16)

    def test_powers_track_closed_form_to_second_order(self):
        # the exact matrix product carries eps^2 terms the closed form drops,
        # so agreement is asserted at a tolerance scaled to eps^2
        eps = 1e-6
        p = thermal_populations(eps).p
        c = cycle_matrix(eps).m
        for k in range(1, 11):
            p = c @ p
            so = measure_order(PopulationVector(p), SINGLET_ORDER)
            assert so == pytest.approx(closed_form_so(2 * k, eps), abs=20 * k * eps**2)


def _call_sites(node, scope, names, out):
    """(callee, enclosing qualified name) of every call of ``names`` below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            f = child.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in names:
                out.append((name, scope))
        named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
        _call_sites(child, f"{scope}.{child.name}" if named else scope, names, out)


class TestPumpLoop:
    def test_the_engine_alone_pumps_and_checks_rows(self):
        # every pump of the library and the CLI runs through the one engine
        sites = []
        for path in sorted(Path(singletcool.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            _call_sites(tree, path.stem, {"_pump", "check_simplex"}, sites)
        assert sorted(sites) == [
            ("_pump", "protocol.PopulationEngine.pump"),
            ("check_simplex", "protocol.PopulationEngine.enhance"),
            ("check_simplex", "protocol.PopulationEngine.pump"),
        ]

    @staticmethod
    def _walk(n_p, a, b, s):
        """The pump as a literal step walk: the reset of decay factors (a, b) written out in
        components, then pi124 and pi142 in turn.

        State 0 is the source broadcast to the shape of the factors, as in `_pump`."""
        src = np.array([0.0, s, 0.0, -s])
        a, b = np.asarray(a)[..., None], np.asarray(b)[..., None]
        delta = np.broadcast_to(src, (*a.shape[:-1], 4))
        out = [delta]
        for k in range(n_p):
            x = delta - src
            t = (x[..., 1:2] + x[..., 2:3] + x[..., 3:4]) / 3.0
            c = a * (x[..., 0:1] - t)
            y = np.concatenate(
                [x[..., 0:1] + 0.75 * c, x[..., 1:] - 0.25 * c + b * (x[..., 1:] - t)], axis=-1)
            delta = (y + src) @ (PI142_EXPECTED if k % 2 else PI124_EXPECTED).T
            out.append(delta)
        return out

    @staticmethod
    def _first_repeat(walk):
        """(j, k): the first state k of a walk bit-equal to an earlier state j of its parity,
        or None."""
        seen = ({}, {})
        for k, state in enumerate(walk):
            j = seen[k % 2].setdefault(state.tobytes(), k)
            if j < k:
                return j, k
        return None

    @staticmethod
    def _assert_same_states(got, want):
        assert len(got) == len(want)
        for g, w in zip(_rows(got), want):
            # bytes, not values: a signed zero or a NaN must match too
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize(
        "factors",
        [
            IDEAL_DECAY,
            _factors(28.0),
            _factors(np.array([0.0, 0.5, 5.0, 28.0, 600.0])),
            _factors(0.0),
            _factors(0.01),
        ],
        ids=["ideal", "one map", "stack of 5", "identity", "short tau"],
    )
    def test_equals_literal_step_walk(self, factors):
        for n_p in (0, 1, 2, 40, 41, 300, 301):
            got, want = _pump(n_p, *factors, 2.5e-5), self._walk(n_p, *factors, 2.5e-5)
            assert len(got) == n_p + 1
            self._assert_same_states(got, want)

    def test_a_hash_collision_is_not_taken_for_a_cycle(self, monkeypatch):
        # every stack state hashes alike, so only bit-equal states may stop the pump
        monkeypatch.setattr(protocol, "hash", lambda key: 0, raising=False)
        factors = _factors(np.array([0.0, 0.5, 5.0, 28.0, 600.0]))
        for n_p in (2, 40, 301):
            got, want = _pump(n_p, *factors, 2.5e-5), self._walk(n_p, *factors, 2.5e-5)
            self._assert_same_states(got, want)

    @pytest.mark.parametrize(
        "factors, period",
        [(_factors(0.0), 2), (IDEAL_DECAY, 2), (_factors(59.0), 4), (_factors(0.01), None)],
        ids=["identity", "ideal", "period 4", "short tau"],
    )
    def test_stops_at_the_first_exact_cycle(self, factors, period):
        steps = []

        class Counted(float):
            def __mul__(self, other):
                steps.append(None)
                return float(self) * other

        walk = self._walk(301, *factors, 2.5e-5)
        repeat = self._first_repeat(walk)
        assert (repeat and repeat[1] - repeat[0]) == period
        a, b = factors
        _pump(301, Counted(a), b, 2.5e-5)
        # one reset, with one product by a, per step, up to the first state that repeats
        assert len(steps) == (301 if repeat is None else repeat[1])

    @pytest.mark.parametrize(
        "factors",
        [IDEAL_DECAY, _factors(28.0), _factors(np.array([0.0, 0.5, 5.0, 28.0, 600.0]))],
        ids=["ideal", "one map", "stack of 5"],
    )
    @pytest.mark.parametrize("n_p", [0, 1, 7, 300])
    def test_returns_a_new_list_of_states(self, factors, n_p):
        got = _pump(n_p, *factors, 2.5e-5)
        assert isinstance(got, list) and len(got) == n_p + 1
        for state in got:
            assert isinstance(state, tuple) and len(state) == 4
            for x in state:
                assert (type(x) is float if np.ndim(factors[0]) == 0
                        else x.dtype == np.float64 and x.shape == np.shape(factors[0]))
        want = _rows(got)
        got[:] = [None] * len(got)  # writing into one result leaves the next call unchanged
        again = _pump(n_p, *factors, 2.5e-5)
        assert [r.tobytes() for r in _rows(again)] == [r.tobytes() for r in want]

    @pytest.mark.parametrize(
        "factors",
        [IDEAL_DECAY, _factors(28.0), _factors(0.0), _factors(np.inf), _factors(59.0),
         _factors(np.array([28.0, 59.0]))],
        ids=["ideal", "one map", "identity", "infinite tau", "period 4", "stack of 2"],
    )
    def test_cycle_fill_equals_literal_step_walk(self, factors):
        walk = self._walk(100, *factors, 2.5e-5)
        j, k = self._first_repeat(walk)
        # zero to a period and more states past the first repeat, whatever its parity
        for n_p in range(k, 2 * k - j + 2):
            self._assert_same_states(_pump(n_p, *factors, 2.5e-5), walk[: n_p + 1])

    @pytest.mark.parametrize("taus", [0.0, np.array([28.0]), np.array([0.0, 28.0, np.inf])],
                             ids=["one map", "stack of 1", "stack of 3"])
    def test_no_permutation_is_the_source_broadcast_to_the_batch(self, taus):
        s = -7.5e-6
        (got,) = _rows(_pump(0, *_factors(taus), s))
        want = np.broadcast_to(np.array([0.0, s, 0.0, -s]), (*np.shape(taus), 4))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        t1=st.floats(0.05, 50.0),
        ratio=st.floats(1.5, 500.0),
        eps_sign=st.sampled_from([1.0, -1.0]),
        eps_exponent=st.floats(-8.0, -1.0),
        n_p=st.integers(0, 400),
        tau_over_t1=st.one_of(
            st.floats(0.0, 30.0),
            st.lists(st.floats(0.0, 30.0), min_size=1, max_size=12).map(np.array),
        ),
    )
    def test_equals_literal_step_walk_on_drawn_systems(
        self, t1, ratio, eps_sign, eps_exponent, n_p, tau_over_t1
    ):
        ts = t1 * ratio
        factors = _decay_factors(1.0 / t1 - 1.0 / ts, 1.0 / ts, tau_over_t1 * t1)
        s = eps_sign * 10.0 ** eps_exponent / 4.0
        self._assert_same_states(_pump(n_p, *factors, s), self._walk(n_p, *factors, s))

    @pytest.mark.parametrize(
        "run",
        [
            lambda p: run_ideal(-1, 1e-4),
            lambda p: run_kinetic(-1, 28.0, 0.0, p),
            lambda p: sweep_tau(-1, [1.0, 28.0], p),
            lambda p: decay_curve(-1, 28.0, [0.0, 50.0, 100.0], p),
            lambda p: zeeman_enhancement_ratio(-1, 28.0, 18.0, p),
        ],
        ids=["run_ideal", "run_kinetic", "sweep_tau", "decay_curve", "zeeman_enhancement_ratio"],
    )
    def test_negative_count_rejected_by_every_engine(self, run):
        with pytest.raises(ValueError, match="n_p must be >= 0"):
            run(SpinSystemParams())


class TestCheckSimplex:
    """PopulationVector's checks over every row of deviations, behind a vectorised screen."""

    def test_rows_on_the_simplex_pass(self, rng):
        rows = random_populations(rng, 50)
        check_simplex(_states(rows.reshape(5, 10, 4) - 0.25))
        rows[7] = [0.5, 0.5, -1e-13, 1e-13]  # fails the screen, within PopulationVector's tolerance
        check_simplex(_states(rows - 0.25))
        check_simplex(_states(rows.reshape(5, 10, 4) - 0.25))

    @pytest.mark.parametrize("shape", [(12, 4), (3, 4, 4)])
    def test_the_first_row_off_the_simplex_raises_its_own_error(self, rng, shape):
        rows = random_populations(rng, 12)
        rows[5] = [0.5, 0.6, -0.1, 0.0]  # negative
        rows[7] = [0.3, 0.3, 0.3, 0.3]  # sums to 1.2
        rows[9] = [0.6, 0.6, -0.2, 0.0]  # more negative, later
        for first in (5, 7):
            with pytest.raises(ValueError) as want:
                PopulationVector(rows[first])
            with pytest.raises(ValueError) as got:
                check_simplex(_states(rows.reshape(shape) - 0.25))
            assert str(got.value) == str(want.value)
            rows[5] = rows[0]

    @pytest.mark.parametrize("shape", [(200, 4), (100, 2, 4)])
    def test_a_later_block_and_a_cycle_tail_are_checked(self, rng, shape):
        rows = random_populations(rng, 200).reshape(shape)
        rows[-10] = [0.5, 0.6, -0.1, 0.0]  # a state past the first block of 64
        states = _states(rows - 0.25)
        with pytest.raises(ValueError, match="negative population"):
            check_simplex(states)
        # a tail that repeats a cycle's tuples, as the pump fills it, and its cycle's states
        head, cycle = states[:-12], states[-12:-8]
        with pytest.raises(ValueError, match="negative population"):
            check_simplex(head + cycle * 30)
        check_simplex(head + states[-8:-4] * 30)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_raise(self, rng, bad):
        rows = random_populations(rng, 4)
        rows[2, 1] = bad
        for shape in [(4, 4), (2, 2, 4)]:  # four states, or two of a stack of two
            with pytest.raises(ValueError):
                check_simplex(_states(rows.reshape(shape) - 0.25))


class TestRunIdeal:
    def test_zero_permutations(self):
        eps = 1e-4
        out = run_ideal(0, eps)
        np.testing.assert_allclose(out.p, thermal_populations(eps).p, atol=1e-18)
        assert measure_order(out, SINGLET_ORDER) == pytest.approx(0.0, abs=1e-16)

    def test_single_permutation(self):
        eps = 1e-4
        so = measure_order(run_ideal(1, eps), SINGLET_ORDER)
        assert so == pytest.approx(-np.sqrt(3) * eps / 6, rel=1e-12)

    def test_six_permutations_near_steady(self):
        eps = 1e-4
        so = measure_order(run_ideal(6, eps), SINGLET_ORDER)
        assert so == pytest.approx((np.sqrt(3) * eps / 4) * (1 - 3.0 ** -6), rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-2])
    def test_closed_form_equivalence(self, eps):
        for n in range(21):
            so = measure_order(run_ideal(n, eps), SINGLET_ORDER)
            assert so == pytest.approx(closed_form_so(n, eps), abs=2e-16 + 1e-13 * eps)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            run_ideal(-1, 1e-4)

    def test_magnitude_strictly_increasing_and_bounded(self):
        eps = 1e-4
        ceiling = eps * np.sqrt(3) / 4
        last = -1.0
        for n in range(1, 25):
            so = measure_order(run_ideal(n, eps), SINGLET_ORDER)
            assert abs(so) > last
            assert abs(so) < ceiling
            assert np.sign(so) == (-1) ** n
            last = abs(so)

    def test_beats_unitary_bound_after_first_cycle(self):
        eps = 1e-4
        bound = unitary_max_order(thermal_populations(eps), SINGLET_ORDER)
        assert measure_order(run_ideal(2, eps), SINGLET_ORDER) > bound

    def test_even_count_equals_cycle_power_in_first_order(self):
        # path A: step walker; path B: composing the affine cycle action
        eps = 1e-4
        delta = eps * THERMAL_DEVIATION
        for _ in range(5):  # 5 cycles = 10 permutations
            delta = PI124_EXPECTED @ (RESET0 @ delta + eps * THERMAL_DEVIATION)
            delta = PI142_EXPECTED @ (RESET0 @ delta + eps * THERMAL_DEVIATION)
        np.testing.assert_allclose(run_ideal(10, eps).p, 0.25 + delta, atol=1e-17)

    def test_exact_cycle_power_deviates_only_at_second_order(self):
        for eps, tol in ((1e-4, 1e-7), (1e-6, 1e-11)):
            exact = np.linalg.matrix_power(cycle_matrix(eps).m, 5) @ thermal_populations(eps).p
            np.testing.assert_allclose(run_ideal(10, eps).p, exact, atol=tol)


class TestClosedForm:
    def test_zero(self):
        assert closed_form_so(0, 1e-4) == 0.0

    def test_large_even_limit(self):
        eps = 1e-4
        limit = eps * np.sqrt(3) / 4
        assert closed_form_so(40, eps) == pytest.approx(limit, rel=1e-12)
        # 3/2 of the unitary bound
        bound = unitary_max_order(thermal_populations(eps), SINGLET_ORDER)
        assert closed_form_so(40, eps) / bound == pytest.approx(1.5, rel=1e-9)

    def test_sign_alternation(self):
        for n in range(1, 9):
            assert np.sign(closed_form_so(n, 1e-4)) == (-1) ** n

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match=re.escape("n_p must be >= 0, got -1")):
            closed_form_so(-1, 1e-4)

    def test_steady_state_rejects_an_odd_count(self):
        with pytest.raises(ValueError,
                           match="steady state is defined for even permutation counts"):
            ideal_steady_state(1e-4, 3)


class TestEnhanceZeeman:
    def test_steady_state_gain(self):
        eps = 1e-4
        enhanced = enhance_zeeman(ideal_steady_state(eps), eps)
        zo = measure_order(enhanced, ZEEMAN_ORDER)
        assert zo == pytest.approx(3 * eps / (4 * np.sqrt(2)), rel=1e-9)
        zo_eq = measure_order(thermal_populations(eps), ZEEMAN_ORDER)
        assert zo / zo_eq == pytest.approx(1.5, rel=1e-9)

    def test_thermal_input_halves_zeeman_order(self):
        # with no pumped singlet order the 1<->2 swap moves the |aa> surplus
        # into the singlet, leaving half the thermal Zeeman order
        eps = 1e-4
        out = enhance_zeeman(thermal_populations(eps), eps)
        assert measure_order(out, ZEEMAN_ORDER) == pytest.approx(eps / (4 * np.sqrt(2)), rel=1e-12)

    def test_unpolarized_input(self):
        out = enhance_zeeman(thermal_populations(0.0), 0.0)
        assert measure_order(out, ZEEMAN_ORDER) == 0.0

    @pytest.mark.parametrize("eps", [1e-8, 3e-5, 1e-4, 3e-3, 0.2])
    def test_matches_reset_then_swap(self, rng, eps):
        # the first-order reset written as Theta(0) delta + eps (0, 1, 0, -1)/4;
        # the stage subtracts the thermal deviation first, which may round
        # differently by one ulp of the uniform population 1/4
        states = [run_ideal(n, eps).p for n in range(0, 80, 2)]
        states += list(random_populations(rng, 20))
        for p in states:
            want = 0.25 + PI12_EXPECTED @ (RESET0 @ (p - 0.25) + eps * THERMAL_DEVIATION)
            got = enhance_zeeman(PopulationVector(p), eps).p
            assert np.all(np.abs(got - want) <= np.spacing(0.25))

    @pytest.mark.parametrize("eps", [1.5, -1.0, 1.0])
    def test_rejects_eps_outside_the_unit_interval_by_name(self, eps):
        # the ideal engine checks |eps| < 1, so every ideal entry point names it
        message = re.escape(f"|eps| = {abs(eps)} >= 1")
        with pytest.raises(ValueError, match=message):
            enhance_zeeman(thermal_populations(0.5), eps)
        with pytest.raises(ValueError, match=message):
            run_ideal(2, eps)
        with pytest.raises(ValueError, match=message):
            ideal_engine(eps)


class TestEpsFloor:
    # below 2**-1018 the deviations eps/4 and eps/12 would be subnormal and lose bits

    def test_floor_is_sixteen_times_the_smallest_normal_double(self):
        assert protocol.MIN_EPS == 16 * np.finfo(float).tiny == 2.0**-1018

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_at_the_floor_the_engine_agrees_with_a_normal_eps_to_round_off(self, sign):
        # eps and 2**998 eps have the same bits but for the exponent; only the pump's
        # decaying transients, ~eps 3^-n, reach subnormals at the floor, an ulp or so
        low, high = ideal_engine(sign * protocol.MIN_EPS), ideal_engine(sign * 2.0**-20)
        deltas_low, deltas_high = low.pump(40), high.pump(40)
        scaled = np.array(deltas_low) * 2.0**998
        assert np.max(np.abs(scaled - deltas_high)) <= 1e-15 * np.max(np.abs(deltas_high))
        for d_low, d_high in zip(deltas_low, deltas_high):
            assert abs(low.signal(d_low) - high.signal(d_high)) <= 4e-16
        assert abs(low.zeeman_ratio(deltas_low[-1]) - high.zeeman_ratio(deltas_high[-1])) <= 4e-16

    @pytest.mark.parametrize("eps", [np.nextafter(2.0**-1018, 0.0), -1e-310, 5e-324])
    def test_below_the_floor_is_rejected_by_name(self, eps):
        message = re.escape(f"|eps| = {abs(eps)!r} < 2**-1018")
        with pytest.raises(ValueError, match=message):
            ideal_engine(eps)
        with pytest.raises(ValueError, match=message):
            run_ideal(2, eps)
        with pytest.raises(ValueError, match=message):
            enhance_zeeman(thermal_populations(eps), eps)

    def test_kinetic_engine_rejects_a_subnormal_eps(self):
        params = SpinSystemParams(gamma=6.7e-13, temperature=1e300)  # eps ~ 8.4e-323
        with pytest.raises(ValueError, match=re.escape("< 2**-1018")):
            zeeman_enhancement_ratio(6, 28.0, 18.0, params)

    def test_zero_eps_stays_accepted(self):
        assert np.array_equal(ideal_engine(0.0).pump(4), np.zeros((5, 4)))


class TestTransferMatrix:
    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            TransferMatrix(np.eye(4) * 2.0)

    def test_rejects_negative_entries(self):
        m = np.eye(4)
        m[0, 0] = -0.5
        m[1, 0] = 1.5
        with pytest.raises(ValueError):
            TransferMatrix(m)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            TransferMatrix(np.eye(3))

    def test_rejects_nan_entries(self):
        m = np.eye(4)
        m[1, 2] = np.nan
        with pytest.raises(ValueError):
            TransferMatrix(m)
        with pytest.raises(ValueError):
            TransferMatrix(np.full((4, 4), np.nan))

    def test_population_conservation(self, rng):
        eps = 1e-3
        for p in random_populations(rng, 30):
            out = cycle_matrix(eps).apply(PopulationVector(p))
            assert out.p.sum() == pytest.approx(1.0, abs=1e-14)


class TestDetectionModel:
    def test_ideal_steady_signal_is_unity(self):
        assert ideal_signal(40, 1e-4) == pytest.approx(1.0, rel=1e-12)

    def test_unitary_bound_signal_is_two_thirds(self):
        eps = 1e-4
        bound = unitary_max_order(thermal_populations(eps), SINGLET_ORDER)
        assert signal_from_singlet_order(bound, eps) == pytest.approx(2 / 3, rel=1e-12)

    def test_undefined_at_zero_polarization(self):
        with pytest.raises(ValueError):
            signal_from_singlet_order(0.1, 0.0)

    def test_ideal_decay_factors_give_the_ideal_reset(self):
        # (a, b) = (0, -1) is the (1, 0) limit of the decay factors: I - (I - Theta) = Theta
        eye, d_so, d_t = _map_parts(0.0)
        a, b = IDEAL_DECAY
        np.testing.assert_allclose(eye + a * d_so + b * d_t, ideal_reset(0.0).m,
                                   rtol=0, atol=1e-16)
