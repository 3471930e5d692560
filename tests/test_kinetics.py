import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singletcool import kinetics, protocol
from singletcool import (
    GAMMA_13C,
    SINGLET_ORDER,
    Permutation,
    PopulationVector,
    SpinSystemParams,
    calibrate_rates,
    closed_form_so,
    decay_curve,
    epsilon,
    finite_reset,
    fit_monoexponential,
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
from singletcool.kinetics import _decay_factors, _relaxation_map
from singletcool.protocol import _pump, _reset_matrix

# engine regression values at the reference parameters
# (T1 = 7.36 s, TS = 214 s, tau = 28 s, tau' = 18 s, n_p = 6)
SIGNAL_REFERENCE = 0.9359843666534515
ENHANCEMENT_REFERENCE = 1.350098140870527


def _theta_and_p_eq(eps):
    """Theta(eps) and P_eq(eps), every column the thermal vector, built uncached."""
    p_eq = np.array([1.0, 1.0 + eps, 1.0, 1.0 - eps]) / 4.0
    return _reset_matrix(eps), np.tile(p_eq.reshape(4, 1), (1, 4))


class TestCalibrateRates:
    def test_reference_rates(self):
        rate = calibrate_rates(7.36, 214.0, 0.0)
        assert rate.k_s == 1.0 / 214.0
        assert rate.k_t == 1.0 / 7.36 - 1.0 / 214.0
        assert rate.k_s == pytest.approx(4.6729e-3, rel=1e-4)
        assert rate.k_t == pytest.approx(0.13120, rel=1e-4)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            calibrate_rates(10.0, 10.0)
        with pytest.raises(ValueError):
            calibrate_rates(214.0, 7.36)
        with pytest.raises(ValueError):
            calibrate_rates(-1.0, 10.0)

    def test_generator_structure(self):
        rate = calibrate_rates(7.36, 214.0, 3e-5)
        r = rate.r
        np.testing.assert_allclose(r.sum(axis=0), np.zeros(4), atol=1e-12)
        off_diag = r - np.diag(np.diag(r))
        assert off_diag.min() >= 0.0
        assert np.diag(r).max() <= 0.0

    def test_thermal_in_null_space(self):
        eps = 3e-5
        rate = calibrate_rates(7.36, 214.0, eps)
        np.testing.assert_allclose(rate.r @ thermal_populations(eps).p, np.zeros(4), atol=1e-10)

    def test_eigenvalue_spectrum_at_zero_polarization(self):
        t1, ts = 7.36, 214.0
        rate = calibrate_rates(t1, ts, 0.0)
        w = np.sort(np.linalg.eigvals(rate.r).real)
        expected = np.sort([0.0, -1.0 / ts, -1.0 / t1, -1.0 / t1])
        np.testing.assert_allclose(w, expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("t1, ts, message", [
        (math.nan, 214.0, "t1 must be finite and positive, got nan"),
        (math.inf, 214.0, "t1 must be finite and positive, got inf"),
        (7.36, math.nan, "ts = nan must be finite and exceed t1 = 7.36 (k_T would be <= 0)"),
        (7.36, math.inf, "ts = inf must be finite and exceed t1 = 7.36 (k_T would be <= 0)"),
    ])
    def test_non_finite_lifetime_is_named(self, t1, ts, message):
        # NaN fails every comparison, so a check written as t1 <= 0 lets it through;
        # ts = inf would give k_S = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                calibrate_rates(t1, ts)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "t1, ts", [(1e-320, 1.0), (5e-324, 1e-323), (np.float64(1e-320), 1.0)],
        ids=["float", "both-rates", "numpy-scalar"],
    )
    def test_overflowing_rate_is_named_before_the_generator(self, t1, ts):
        # 1/t1 = inf (and 1/ts too in the second case) would give k_T = NaN;
        # a numpy scalar t1 gives the same message and no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                calibrate_rates(t1, ts)
        assert str(info.value) == f"relaxation rate 1/t1 = inf: t1 = {float(t1)!r} is too small"

    def test_memoized_rate_matrix_is_shared_and_read_only(self):
        rate = calibrate_rates(7.36, 214.0, 3e-5)
        assert calibrate_rates(7.36, 214.0, 3e-5) is rate
        with pytest.raises(ValueError, match="read-only"):
            rate.r[0, 0] = 1.0

    def test_memo_is_bounded(self):
        # one entry per spin system; a bound keeps memory flat however many are drawn
        assert calibrate_rates.cache_info().maxsize is not None

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(
        t1=st.floats(1e-3, 1e3),
        log_ratio=st.floats(math.log10(1.01), 10.0),
        eps=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.9, 0.9)),
    )
    def test_modes_decay_at_the_calibrated_rates_over_the_full_range(self, t1, log_ratio, eps):
        # k_S = 1/TS and k_T = 1/T1 - 1/TS hold by construction, to round-off of the
        # generator's scale, up to TS/T1 = 1e10: SO is a left eigenvector of r at -1/TS,
        # and at eps = 0 the SO and ZO modes decay at 1/TS and 1/T1
        ts = t1 * 10.0**log_ratio
        r = calibrate_rates(t1, ts, eps).r
        so = SINGLET_ORDER.eigenvalues
        assert np.max(np.abs(so @ r + so / ts)) <= 2e-15 * np.max(np.abs(r)) * np.max(np.abs(so))
        r0 = calibrate_rates(t1, ts, 0.0).r
        for v, t in (([3.0, -1.0, -1.0, -1.0], ts), ([0.0, 1.0, 0.0, -1.0], t1)):
            v = np.array(v)
            assert np.max(np.abs(r0 @ v + v / t)) <= 2e-15 * np.max(np.abs(r0)) * np.max(np.abs(v))

    def test_mode_rates(self):
        # slowest decaying deviation mode is singlet order at 1/ts, the
        # Zeeman mode decays at 1/t1
        t1, ts = 5.0, 100.0
        r = calibrate_rates(t1, ts, 0.0).r
        v_so = np.array([3.0, -1.0, -1.0, -1.0])
        v_zo = np.array([0.0, 1.0, 0.0, -1.0])
        np.testing.assert_allclose(r @ v_so, -v_so / ts, rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(r @ v_zo, -v_zo / t1, rtol=1e-9, atol=1e-15)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        t1=st.floats(1e-3, 1e3),
        ratio=st.floats(1.01, 1e3),
        eps=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.9, 0.9)),
    )
    def test_generator_is_bit_equal_to_the_literal_expression(self, t1, ratio, eps):
        # the spectral form -k_S (Theta - P_eq) - (k_T + k_S)(I - Theta),
        # summed as -k_T (I - Theta) - k_S ((Theta - P_eq) + (I - Theta))
        ts = t1 * ratio
        rate = calibrate_rates(t1, ts, eps)
        theta, p_eq = _theta_and_p_eq(eps)
        eye = np.eye(4)
        want = -rate.k_t * (eye - theta) - rate.k_s * ((theta - p_eq) + (eye - theta))
        assert rate.r.tobytes() == want.tobytes()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(t1=st.floats(1e-3, 1e3), log_ratio=st.floats(0.01, 9.0))
    def test_eps_zero_generator_is_bit_equal_to_the_defining_form(self, t1, log_ratio):
        # pins RateMatrix.r at eps = 0 to the bits of the defining form, so that every
        # kinetic output keeps its bits
        k_s = 1.0 / (t1 * 10.0**log_ratio)
        k_t = 1.0 / t1 - k_s
        theta, p_eq = _theta_and_p_eq(0.0)
        eye = np.eye(4)
        want = k_t * (theta - eye) + k_s * (p_eq - eye)
        assert kinetics._generator(k_t, k_s, 0.0).tobytes() == want.tobytes()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        t1=st.floats(1e-3, 1e3),
        ratio=st.floats(1.01, 1e3),
        eps=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.9, 0.9)),
    )
    def test_generator_is_the_rate_of_the_maps_at_zero(self, t1, ratio, eps):
        # a forward difference of exp(R h) at h = 1e-9/(k_T + k_S): truncation
        # ~1e-9 and round-off ~1e-7 relative to max|r|
        rate = calibrate_rates(t1, t1 * ratio, eps)
        h = 1e-9 / (rate.k_t + rate.k_s)
        slope = (_relaxation_map(rate.k_t, rate.k_s, eps, h) - np.eye(4)) / h
        assert np.max(np.abs(slope - rate.r)) <= 1e-6 * np.max(np.abs(rate.r))


class TestFiniteReset:
    def setup_method(self):
        self.rate = calibrate_rates(7.36, 214.0, 3e-5)

    def test_zero_interval_is_identity(self):
        np.testing.assert_allclose(finite_reset(self.rate, 0.0).m, np.eye(4), atol=1e-14)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        t1=st.floats(1e-2, 1e2),
        ratio=st.floats(1.0 + 1e-6, 1e4),
        eps=st.floats(-0.5, 0.5),
        tau_over_ts=st.floats(0.0, 50.0),
    )
    def test_singlet_order_is_a_left_eigenvector(self, t1, ratio, eps, tau_over_ts):
        # the identity that lets free evolution rescale pumped singlet order
        ts = t1 * ratio
        tau = tau_over_ts * ts
        m = finite_reset(calibrate_rates(t1, ts, eps), tau).m
        so = SINGLET_ORDER.eigenvalues
        np.testing.assert_allclose(so @ m, np.exp(-tau / ts) * so, rtol=0, atol=1e-12)

    def test_negative_interval_rejected(self):
        for tau in (-1.0, math.nan):  # nan passes a plain tau < 0 test
            with pytest.raises(ValueError, match=re.escape(f"tau must be >= 0, got {tau}")):
                finite_reset(self.rate, tau)

    @pytest.mark.parametrize("eps", [0.0, 3e-5])
    def test_stacked_maps_equal_scalar_maps(self, rng, eps):
        # sweep_tau pumps the stack; each slice must be the scalar map exactly
        k_t, k_s = self.rate.k_t, self.rate.k_s
        for grid in ([0.0], rng.uniform(0.0, 300.0, 4), np.logspace(-4, 5, 97)):
            stack = kinetics._relaxation_map(k_t, k_s, eps, grid)
            assert stack.shape == (len(grid), 4, 4)
            for tau, m in zip(grid, stack):
                assert np.array_equal(m, kinetics._relaxation_map(k_t, k_s, eps, float(tau)))

    def test_semigroup(self, rng):
        for _ in range(200):
            t1, t2 = rng.uniform(0.1, 120.0, size=2)
            a = finite_reset(self.rate, t1).m
            b = finite_reset(self.rate, t2).m
            c = finite_reset(self.rate, t1 + t2).m
            np.testing.assert_allclose(a @ b, c, atol=1e-10)

    def test_entries_and_column_sums_on_log_grid(self):
        for tau in np.logspace(-3, 4, 40):
            m = finite_reset(self.rate, tau).m
            assert m.min() >= 0.0
            assert m.max() <= 1.0 + 1e-12
            np.testing.assert_allclose(m.sum(axis=0), np.ones(4), atol=1e-12)

    def test_long_interval_rethermalizes(self):
        eps = 3e-5
        m = finite_reset(calibrate_rates(7.36, 214.0, eps), 1e5).m
        expected = np.tile(thermal_populations(eps).p.reshape(4, 1), (1, 4))
        np.testing.assert_allclose(m, expected, atol=1e-12)

    def test_pure_singlet_order_decays_at_ts(self):
        # matrix exponential versus the scalar exponential on the SO mode
        ts = 214.0
        rate = calibrate_rates(7.36, ts, 0.0)
        delta = np.array([0.075, -0.025, -0.025, -0.025])  # pure SO deviation
        p0 = PopulationVector(0.25 + delta)
        so0 = measure_order(p0, SINGLET_ORDER)
        after = finite_reset(rate, 28.0).apply(p0)
        retention = measure_order(after, SINGLET_ORDER) / so0
        assert retention == pytest.approx(np.exp(-28.0 / ts), rel=1e-12)
        assert retention == pytest.approx(0.8774, abs=5e-5)

    def test_long_intervals_give_valid_transfer_matrices(self):
        # regression: an eigen-decomposition exponential left column sums
        # off by more than 1e-12 at these intervals
        finite_reset(calibrate_rates(0.01, 5.0, 0.0), 56.23)
        rate = calibrate_rates(2.0, 1e6, 0.0)
        for tau in np.linspace(1.7e4, 1.9e4, 41):
            finite_reset(rate, tau)

    @pytest.mark.parametrize("t1", [0.01, 1.0, 7.36])
    @pytest.mark.parametrize("ratio", [1 + 1e-9, 1 + 1e-6, 29.0, 1e5])
    @pytest.mark.parametrize("eps", [0.0, 3e-5, 0.3])
    def test_closed_form_matches_scaling_and_squaring(self, t1, ratio, eps):
        import scipy.linalg

        rate = calibrate_rates(t1, t1 * ratio, eps)
        for tau in np.logspace(-3, 3):
            reference = scipy.linalg.expm(rate.r * tau)
            np.testing.assert_allclose(finite_reset(rate, tau).m, reference, rtol=0, atol=1e-11)
        for tau in (1e4, 1e5):
            finite_reset(rate, tau)


_TAUS = st.floats(min_value=0.0, allow_nan=False)  # 0, +inf and intervals whose k*tau overflows


class TestCachedMapParts:
    # every map is assembled from (I, Theta - P_eq, I - Theta) at eps

    @staticmethod
    def _uncached_map(k_t, k_s, eps, tau):
        theta, p_eq = _theta_and_p_eq(eps)
        eye = np.eye(4)
        tau = np.asarray(tau, dtype=float)[..., None, None]
        with np.errstate(over="ignore"):
            a, b = np.expm1(-k_s * tau), np.expm1(-(k_t + k_s) * tau)
        return eye + a * (theta - p_eq) + b * (eye - theta)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        k_t=st.floats(1e-6, 1e6),
        k_s=st.floats(1e-9, 1e3),
        eps=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.9, 0.9)),
        tau=st.one_of(
            st.sampled_from([0.0, math.inf]),
            _TAUS,
            st.lists(_TAUS, min_size=1, max_size=6).map(np.array),
        ),
    )
    def test_map_is_bit_identical_to_the_uncached_expression(self, k_t, k_s, eps, tau):
        got = _relaxation_map(k_t, k_s, eps, tau)
        want = self._uncached_map(k_t, k_s, eps, tau)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tau", [28.0, np.array([0.0, 28.0])])
    def test_each_call_returns_a_fresh_writeable_map(self, tau):
        first = _relaxation_map(0.13, 0.0047, 0.0, tau)
        want = first.copy()
        second = _relaxation_map(0.13, 0.0047, 0.0, tau)
        assert first is not second and not np.shares_memory(first, second)
        assert first.flags.writeable and second.flags.writeable
        first[...] = np.nan  # a caller writing into one map leaves the next intact
        assert _relaxation_map(0.13, 0.0047, 0.0, tau).tobytes() == want.tobytes()
        assert second.tobytes() == want.tobytes()


class TestRunKinetic:
    def test_ideal_reset_limit_reproduces_ideal_engine(self, default_params):
        # (e^{-k_S tau}, e^{-(k_T+k_S) tau}) = (1, 0) turns the relaxation
        # map into the ideal reset, and the kinetic pump into the ideal one
        eps = epsilon(default_params)
        ideal_limit = _decay_factors(1e3, 0.0, 1.0)
        for n in (0, 1, 2, 5, 8):
            pumped = 0.25 + np.array(_pump(n, *ideal_limit, 0.25 * eps)[-1])
            np.testing.assert_allclose(pumped, run_ideal(n, eps).p, atol=1e-16)

    def test_reference_signal_frozen(self, default_params):
        res = run_kinetic(6, 28.0, 0.0, default_params)
        assert res.signal == pytest.approx(SIGNAL_REFERENCE, rel=1e-9)

    @pytest.mark.parametrize("n_p, tau, tau_ev", [(0, 5.0, 0.0), (7, 28.0, 40.0), (40, 3.0, 300.0)])
    def test_signal_is_read_off_the_so_trace(self, default_params, n_p, tau, tau_ev):
        # the readout takes the last SO of the trace, bit for bit the value the
        # engine reads off the last pumped row
        res = run_kinetic(n_p, tau, tau_ev, default_params)
        eps = epsilon(default_params)
        decay = math.exp(-tau_ev / default_params.ts)
        assert res.signal == signal_from_singlet_order(res.so_trace[-1][1], eps) * decay
        engine = kinetics.kinetic_engine(default_params)
        _same(res.signal, engine.signal(engine.pump(n_p, tau)[-1], tau_ev))

    def test_plateau_band(self, default_params):
        for n in range(6, 13):
            res = run_kinetic(n, 28.0, 0.0, default_params)
            assert 0.85 <= abs(res.signal) <= 1.0
            if n % 2 == 0:
                assert res.signal > 0
            else:
                assert res.signal < 0

    def test_very_long_resets_fall_back_to_unitary_level(self, default_params):
        # each cycle ends with a permutation of an almost fully rethermalized
        # state, so the signal settles at the one-permutation level 2/3
        # instead of decaying to zero
        res = run_kinetic(6, 10 * default_params.ts, 0.0, default_params)
        assert res.signal == pytest.approx(2 / 3, abs=2e-4)

    def test_trace_matches_shorter_runs(self, default_params):
        # the pump sequence for n permutations is a prefix of the sequence
        # for any larger count
        res = run_kinetic(8, 28.0, 0.0, default_params)
        eps = epsilon(default_params)
        for k, so in res.so_trace:
            short = run_kinetic(k, 28.0, 0.0, default_params)
            assert so == pytest.approx(short.signal * eps * np.sqrt(3) / 4, abs=1e-18)

    def test_steady_state_between_zero_and_ideal(self, default_params):
        eps = epsilon(default_params)
        ceiling = eps * np.sqrt(3) / 4
        for tau in (1.0, 5.0, 28.0, 100.0, 1000.0):
            res = run_kinetic(20, tau, 0.0, default_params)
            so = abs(res.so_trace[-1][1])
            assert 0.0 < so < ceiling

    def test_ideal_limit_of_timescale_separation(self):
        # ts/t1 -> infinity with tau = 30*t1: resets become ideal
        params = SpinSystemParams(t1=1.0, ts=1e6)
        res = run_kinetic(20, 30.0, 0.0, params)
        assert res.signal == pytest.approx(1.0, rel=1e-3)

    def test_enhancement_reference_frozen(self, default_params):
        ratio = zeeman_enhancement_ratio(6, 28.0, 18.0, default_params)
        assert ratio == pytest.approx(ENHANCEMENT_REFERENCE, rel=1e-9)
        assert 1.21 <= ratio <= 1.5

    def test_enhancement_tau_prime_defaults_to_tau(self, default_params):
        res = run_kinetic(6, 28.0, 0.0, default_params, enhance=True)
        explicit = run_kinetic(6, 28.0, 0.0, default_params, enhance=True, tau_prime=28.0)
        assert res.zo_final == explicit.zo_final

    def test_evolution_interval_scales_signal_by_singlet_decay(self, default_params):
        # singlet order is a left eigenvector of every relaxation map with
        # eigenvalue exp(-tau/ts), so free evolution only rescales the signal
        ts = default_params.ts
        for n in (1, 2, 5, 6, 11):
            for tau in (0.5, 28.0, 300.0):
                base = run_kinetic(n, tau, 0.0, default_params).signal
                for tau_ev in (1.0, 50.0, 600.0):
                    evolved = run_kinetic(n, tau, tau_ev, default_params).signal
                    assert evolved == pytest.approx(base * np.exp(-tau_ev / ts), rel=1e-12)

    def test_one_pump_per_enhancement_ratio(self, default_params, monkeypatch):
        spy = mock.Mock(wraps=protocol._pump)
        monkeypatch.setattr(protocol, "_pump", spy)
        ratio = zeeman_enhancement_ratio(6, 28.0, 18.0, default_params)
        assert spy.call_count == 1
        assert ratio == pytest.approx(ENHANCEMENT_REFERENCE, rel=1e-9)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        t1=st.floats(0.05, 50.0),
        ratio=st.floats(1.5, 500.0),
        gamma_sign=st.sampled_from([1.0, -1.0]),
        n_p=st.integers(0, 300),
        tau_over_t1=st.one_of(st.floats(0.0, 30.0), st.just(math.inf)),
        tau_prime_over_t1=st.one_of(st.floats(0.0, 30.0), st.just(math.inf)),
    )
    def test_enhancement_ratio_equals_run_kinetic_bit_for_bit(
        self, t1, ratio, gamma_sign, n_p, tau_over_t1, tau_prime_over_t1
    ):
        params = SpinSystemParams(t1=t1, ts=t1 * ratio, gamma=gamma_sign * GAMMA_13C)
        tau, tau_prime = tau_over_t1 * t1, tau_prime_over_t1 * t1
        res = run_kinetic(n_p, tau, 0.0, params, enhance=True, tau_prime=tau_prime)
        want = res.zo_final / (epsilon(params) / (2.0 * math.sqrt(2.0)))
        got = zeeman_enhancement_ratio(n_p, tau, tau_prime, params)
        assert type(got) is type(want) and repr(got) == repr(want)

    _HOT = {"temperature": 0.0085}  # eps ~ 0.995: the first-order pump leaves the simplex

    @pytest.mark.filterwarnings("ignore:eps = .* outside the high-temperature regime")
    @pytest.mark.parametrize(
        "case, message, decay_message",
        [
            ({"tau": -1.0}, "tau and tau_ev must be >= 0", None),
            ({"tau": math.nan}, "tau and tau_ev must be >= 0", None),
            ({"tau_prime": -1.0}, "tau_prime must be >= 0", "returns"),
            ({"tau_prime": math.nan}, "tau_prime must be >= 0", "returns"),
            ({"n_p": -1}, "n_p must be >= 0, got -1", None),
            (_HOT, "negative population -8.746e-02 beyond tolerance", None),
            # the last pumped state is on the simplex, rows 3 and 5 are not
            ({**_HOT, "tau": 100.0}, "negative population -6.144e-02 beyond tolerance", None),
            ({"tau": math.nan, "tau_prime": math.nan, "n_p": -1},
             "tau and tau_ev must be >= 0", None),
            ({**_HOT, "tau_prime": -1.0, "n_p": -1}, "tau_prime must be >= 0",
             "n_p must be >= 0, got -1"),
            ({**_HOT, "n_p": -1}, "n_p must be >= 0, got -1", None),
            ({"gamma": 0.0}, "signal normalization undefined at eps = 0", None),
        ],
        ids=["tau<0", "tau nan", "tau'<0", "tau' nan", "n_p<0", "off simplex",
             "row off simplex", "tau before tau' and n_p", "tau' before n_p",
             "n_p before simplex", "eps = 0"],
    )
    @pytest.mark.parametrize("entry", ["run_kinetic", "decay_curve", "zeeman_enhancement_ratio"])
    def test_every_entry_point_names_the_same_first_fault(
        self, case, message, decay_message, entry
    ):
        case = dict(case)
        n_p, tau, tau_prime = case.pop("n_p", 6), case.pop("tau", 28.0), case.pop("tau_prime", 18.0)
        params = SpinSystemParams(**case)
        run = {
            "run_kinetic": lambda: run_kinetic(n_p, tau, 0.0, params, enhance=True,
                                               tau_prime=tau_prime),
            "decay_curve": lambda: decay_curve(n_p, tau, [0.0, 10.0, 20.0], params),
            "zeeman_enhancement_ratio": lambda: zeeman_enhancement_ratio(n_p, tau, tau_prime,
                                                                         params),
        }[entry]
        if entry == "decay_curve":  # a curve has no tau'
            message = decay_message or message
        if message == "returns":
            run()
            return
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run()

    def test_no_enhancement_means_no_zo(self, default_params):
        assert run_kinetic(4, 28.0, 0.0, default_params).zo_final is None

    def test_domain_errors(self, default_params):
        with pytest.raises(ValueError):
            run_kinetic(-1, 28.0, 0.0, default_params)
        with pytest.raises(ValueError):
            run_kinetic(4, -1.0, 0.0, default_params)
        with pytest.raises(ValueError):
            run_kinetic(4, 28.0, -0.5, default_params)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": float("nan")},
            {"tau_ev": float("nan")},
            {"enhance": True, "tau_prime": float("nan")},
        ],
        ids=["tau", "tau_ev", "tau_prime"],
    )
    def test_nan_intervals_rejected(self, default_params, kwargs):
        args = {"tau": 28.0, "tau_ev": 0.0, **kwargs}
        with pytest.raises(ValueError):
            run_kinetic(4, params=default_params, **args)


class TestSweepTau:
    def test_too_short_and_too_long_lose(self, default_params):
        sweep = sweep_tau(6, [0.0, 0.1, 1.0, 10.0, 28.0, 60.0, 120.0, 240.0], default_params)
        sig = dict(sweep.points)
        # zero delay: the two permutations of each cycle undo one another
        assert sig[0.0] == pytest.approx(0.0, abs=1e-12)
        assert sig[0.0] < sweep.signal_star
        assert sig[0.1] < sig[28.0]
        assert sig[240.0] < sig[28.0]

    def test_unimodal_on_dense_grid(self, default_params):
        grid = np.linspace(1.0, 200.0, 400)
        sweep = sweep_tau(6, grid, default_params)
        sig = np.array([s for _, s in sweep.points])
        diffs = np.diff(sig)
        diffs = diffs[diffs != 0.0]
        sign_changes = int(np.sum(np.diff(np.sign(diffs)) != 0))
        assert sign_changes == 1

    def test_optimum_in_expected_band(self, default_params):
        grid = np.logspace(np.log10(0.5), np.log10(240.0), 40)
        sweep = sweep_tau(6, grid, default_params)
        assert 10.0 <= sweep.tau_star <= 60.0
        assert sweep.signal_star == pytest.approx(max(abs(s) for _, s in sweep.points))

    def test_grid_validation(self, default_params):
        with pytest.raises(ValueError):
            sweep_tau(6, [], default_params)
        with pytest.raises(ValueError):
            sweep_tau(6, [10.0, 5.0], default_params)

    def test_nan_grid_rejected(self, default_params):
        with pytest.raises(ValueError):
            sweep_tau(6, [float("nan")], default_params)

    @pytest.mark.parametrize("grid", [[-1.0], [-5.0, 0.0, 3.0], [0.0, 1.0, float("nan")]])
    def test_negative_or_nan_entry_rejected(self, default_params, grid):
        with pytest.raises(ValueError):
            sweep_tau(6, grid, default_params)

    @pytest.mark.filterwarnings("ignore:eps = .* outside the high-temperature regime")
    def test_state_off_the_simplex_rejected(self):
        # eps ~ 0.995: the first-order pump leaves the simplex at tau = 28 s
        params = SpinSystemParams(temperature=0.0085)
        with pytest.raises(ValueError, match="negative population"):
            run_kinetic(6, 28.0, 0.0, params)
        with pytest.raises(ValueError, match="negative population"):
            sweep_tau(6, [0.0, 28.0], params)

    @pytest.mark.filterwarnings("ignore:eps = .* outside the high-temperature regime")
    def test_intermediate_rows_off_the_simplex_rejected(self):
        # eps ~ 0.995 and tau = 100 s: the last pumped state is on the simplex,
        # rows 3 and 5 are not
        params = SpinSystemParams(temperature=0.0085)
        eps = epsilon(params)
        rate = calibrate_rates(params.t1, params.ts, eps)
        deltas = _pump(6, *_decay_factors(rate.k_t, rate.k_s, 100.0), 0.25 * eps)
        PopulationVector(0.25 + np.array(deltas[-1]))
        for run in (lambda: run_kinetic(6, 100.0, 0.0, params),
                    lambda: decay_curve(6, 100.0, [0.0, 10.0, 20.0], params),
                    lambda: zeeman_enhancement_ratio(6, 100.0, 18.0, params),
                    lambda: sweep_tau(6, [100.0], params)):
            with pytest.raises(ValueError, match="negative population"):
                run()

    @pytest.mark.filterwarnings("ignore:eps = .* outside the high-temperature regime")
    @pytest.mark.parametrize(
        "run",
        [
            lambda params: run_kinetic(6, 28.0, 0.0, params),
            lambda params: sweep_tau(6, [0.0, 28.0], params),
            lambda params: decay_curve(6, 28.0, [0.0, 10.0, 20.0], params),
            lambda params: zeeman_enhancement_ratio(6, 28.0, 18.0, params),
        ],
        ids=["run_kinetic", "sweep_tau", "decay_curve", "zeeman_enhancement_ratio"],
    )
    def test_eps_outside_the_unit_interval_rejected_by_name(self, run):
        # eps ~ 8.45: the engine names the domain before any pump
        with pytest.raises(ValueError, match=r"^\|eps\| = 8\.45\d* >= 1$"):
            run(SpinSystemParams(temperature=1e-3))

    def test_negative_count_rejected(self, default_params):
        with pytest.raises(ValueError):
            sweep_tau(-1, [1.0, 2.0], default_params)

    # a 4-point grid at n_p = 4 would hide a pump that carries row vectors,
    # where P @ delta is then a valid but wrong product
    @pytest.mark.parametrize("n_p", [0, 1, 4, 7, 200])
    @pytest.mark.parametrize(
        "grid",
        [[28.0], [0.0, 0.7, 28.0, 240.0], np.concatenate([[0.0], np.logspace(-3, 3.5, 319)])],
        ids=["1pt", "4pt", "320pt"],
    )
    def test_points_equal_single_runs(self, default_params, n_p, grid):
        sweep = sweep_tau(n_p, grid, default_params)
        assert [tau for tau, _ in sweep.points] == list(grid)
        for tau, sig in sweep.points:
            assert sig == run_kinetic(n_p, tau, 0.0, default_params).signal

    def test_one_pump_per_sweep(self, default_params, monkeypatch):
        pump = mock.Mock(wraps=protocol._pump)
        run = mock.Mock(wraps=kinetics.run_kinetic)
        monkeypatch.setattr(protocol, "_pump", pump)
        monkeypatch.setattr(kinetics, "run_kinetic", run)
        sweep = sweep_tau(6, np.linspace(0.0, 240.0, 50), default_params)
        assert len(sweep.points) == 50
        assert pump.call_count == 1
        assert run.call_count == 0


class TestDecayCurve:
    def test_pure_exponential_in_evolution_interval(self, default_params):
        ts = default_params.ts
        grid = np.linspace(0.0, 3 * ts, 25)
        curve = decay_curve(6, 28.0, grid, default_params)
        base = curve[0][1]
        for tev, sig in curve:
            assert sig / base == pytest.approx(np.exp(-tev / ts), rel=2e-2)
            # the model is noiseless: agreement is far tighter than the 2%
            # the experiment could resolve
            assert sig / base == pytest.approx(np.exp(-tev / ts), rel=1e-9)

    def test_fit_recovers_input_time_constant(self, default_params):
        grid = np.linspace(0.0, 600.0, 20)
        curve = decay_curve(6, 28.0, grid, default_params)
        fit = fit_monoexponential(curve)
        assert fit.ok
        assert fit.time_constant == pytest.approx(default_params.ts, rel=2e-2)
        assert fit.time_constant == pytest.approx(default_params.ts, rel=1e-6)

    def test_zero_point_consistency(self, default_params):
        curve = decay_curve(6, 28.0, [0.0, 50.0], default_params)
        direct = run_kinetic(6, 28.0, 0.0, default_params)
        assert curve[0][1] == direct.signal

    def test_empty_grid_rejected(self, default_params):
        with pytest.raises(ValueError):
            decay_curve(6, 28.0, [], default_params)

    def test_nan_inputs_rejected(self, default_params):
        with pytest.raises(ValueError):
            decay_curve(4, 28.0, [float("nan")], default_params)
        with pytest.raises(ValueError):
            decay_curve(4, float("nan"), [0.0, 1.0], default_params)

    def test_one_pump_per_curve(self, default_params, monkeypatch):
        grid = [0.0, 1e-3, 0.5, 28.0, 214.0, 900.0]
        spy = mock.Mock(wraps=protocol._pump)
        monkeypatch.setattr(protocol, "_pump", spy)
        curve = decay_curve(7, 28.0, grid, default_params)
        assert spy.call_count == 1
        for tev, sig in curve:
            assert sig == run_kinetic(7, 28.0, tev, default_params).signal

    def test_deep_tail_matches_extended_precision(self, default_params):
        # s0*exp(-tau_ev/ts) evaluated in 40 digits; relaxing the pumped
        # state with the 4x4 map instead loses ~3e-7 relative at 5000 s
        mp = pytest.importorskip("mpmath")
        grid = [0.0, 1e-3, 3.0, 77.0, 900.0, 5000.0]
        curve = decay_curve(11, 5.0, grid, default_params)
        with mp.workdps(40):
            s0 = mp.mpf(curve[0][1])
            for tev, sig in curve:
                exact = s0 * mp.exp(-mp.mpf(tev) / mp.mpf(default_params.ts))
                assert abs((mp.mpf(sig) - exact) / exact) < 1e-14


def _so_reference(d):
    """SO of one state of deviations, read one scalar at a time."""
    return float(SINGLET_ORDER.normalization * (d[0] - (d[1] + d[2] + d[3]) / 3.0))


def _signal_reference(so, eps, tau_ev, ts):
    """Detected signal of one SO value after free evolution for tau_ev."""
    zo_eq = eps / (2.0 * np.sqrt(2.0))
    return float(np.sqrt(2.0 / 3.0) * so / zo_eq) * math.exp(-tau_ev / ts)


def _types(x):
    return tuple(map(_types, x)) if isinstance(x, tuple) else type(x)


def _same(got, want):
    """Equal, with the same types (every float a Python float) and signs of zero."""
    assert got == want
    assert _types(got) == _types(want)
    assert repr(got) == repr(want)


class TestArrayReadout:
    """The array readouts equal the per-point scalar readout bit for bit."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        t1=st.floats(0.05, 50.0),
        ratio=st.floats(1.5, 500.0),
        gamma_sign=st.sampled_from([1.0, -1.0]),
        n_p=st.integers(0, 300),
        tau_over_t1=st.floats(0.0, 30.0),
        inner=st.integers(0, 318).flatmap(
            lambda n: st.lists(st.floats(1e-3, 1e4), min_size=n, max_size=n, unique=True)
        ),
    )
    def test_readouts_equal_the_scalar_reference(
        self, t1, ratio, gamma_sign, n_p, tau_over_t1, inner
    ):
        params = SpinSystemParams(t1=t1, ts=t1 * ratio, gamma=gamma_sign * GAMMA_13C)
        tau = tau_over_t1 * t1
        grid = [0.0, *sorted(inner), math.inf]
        eps = epsilon(params)
        rate = calibrate_rates(params.t1, params.ts, eps)

        deltas = _pump(n_p, *_decay_factors(rate.k_t, rate.k_s, tau), 0.25 * eps)
        trace = tuple((k, _so_reference(d)) for k, d in enumerate(deltas))
        _same(run_kinetic(n_p, tau, 0.0, params).so_trace, trace)
        _same(protocol._so_of_deviation(deltas[-1]), trace[-1][1])
        so = trace[-1][1]
        _same(signal_from_singlet_order(so, eps), _signal_reference(so, eps, 0.0, params.ts))

        stack = _pump(n_p, *_decay_factors(rate.k_t, rate.k_s, np.array(grid)), 0.25 * eps)
        pumped = np.stack(stack[-1], axis=-1)
        points = tuple(
            (tau_k, _signal_reference(_so_reference(d), eps, 0.0, params.ts))
            for tau_k, d in zip(grid, pumped)
        )
        sweep = sweep_tau(n_p, grid, params)
        _same(sweep.points, points)
        best = max(range(len(points)), key=lambda i: abs(points[i][1]))
        _same((sweep.tau_star, sweep.signal_star), points[best])

        curve = tuple((tev, _signal_reference(so, eps, tev, params.ts)) for tev in grid)
        _same(decay_curve(n_p, tau, grid, params), curve)


def noisy_decay(seed, noise):
    """Seeded +-exp(-t/209) on 3-39 even or random times in [0, 600], plus noise."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    t = np.sort(rng.uniform(0.0, 600.0, n)) if seed % 2 else np.linspace(0.0, 600.0, n)
    return t, rng.choice([-1.0, 1.0]) * np.exp(-t / 209.0) + noise * rng.standard_normal(n)


def curve_fit_reference(t, y):
    """(ok, residual norm) of Levenberg-Marquardt on (A, T) from the log-linear seed."""
    scipy_optimize = pytest.importorskip("scipy.optimize")

    def model(tt, a, tc):
        return a * np.exp(-tt / tc)

    mask = np.abs(y) > 0.0
    slope, intercept = np.polyfit(t[mask], np.log(np.abs(y[mask])), 1)
    p0 = [np.sign(y[mask][0]) * np.exp(intercept), -1.0 / slope]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (a, tc), _ = scipy_optimize.curve_fit(model, t, y, p0=p0, method="lm", maxfev=10000)
    except RuntimeError:
        return False, np.inf
    return bool(np.isfinite(tc) and tc > 0.0), np.linalg.norm(y - model(t, a, tc))


def polyfit_seed(t, y):
    """The fit's original seed: minus np.polyfit's slope of log|y| over the nonzero y."""
    mask = np.abs(y) > 0.0
    if mask.sum() >= 2 and np.ptp(t[mask]) > 0.0:
        return -np.polyfit(t[mask], np.log(np.abs(y[mask])), 1)[0]
    return np.nan


def reference_fit(points, seed=polyfit_seed):
    """Reference: the variable-projection fit as first written, seeded by ``seed`` (or by
    1/(t spread) where it is not finite), with its numpy-scalar Gauss-Newton/secant loop.
    The columns are contiguous, as in the fit: a dot product may round differently on a
    strided view."""
    t, y = np.array(np.asarray(points, dtype=float).T, order="C")
    if np.ptp(y) == 0.0:
        return kinetics.FitResult(np.nan, np.nan, 0.0, ok=False, message="constant data")
    if np.ptp(t) == 0.0:
        return kinetics.FitResult(np.nan, np.nan, float(np.linalg.norm(y)), False,
                                  "all times are equal")
    with np.errstate(all="ignore"):
        k = seed(t, y)
    if not np.isfinite(k):
        k = 1.0 / np.ptp(t)

    def projected(k):
        e = np.exp(-k * t)
        ee, te = e @ e, t * e
        a = (e @ y) / ee
        return a, y - a * e, a * (te - ((e @ te) / ee) * e)

    with np.errstate(all="ignore"):
        a, r, jac = projected(k)
        k_prev = grad_prev = None
        for _ in range(kinetics._FIT_MAX_STEPS):
            grad = jac @ r
            step = -grad / (jac @ jac)
            if grad_prev is not None and grad * grad_prev < 0.0:
                step = -grad * (k - k_prev) / (grad - grad_prev)
            k_prev, grad_prev = k, grad
            for _ in range(kinetics._FIT_MAX_STEPS):
                trial = projected(k + step)
                if trial[1] @ trial[1] <= r @ r:
                    k, (a, r, jac) = k + step, trial
                    break
                step /= 2
            converged = abs(step) <= kinetics._FIT_RTOL * abs(k)
            if converged or not np.isfinite(step):
                break
        time_constant = float(1.0 / k)
    if not np.isfinite(step):
        return kinetics.FitResult(np.nan, np.nan, float(np.linalg.norm(r)), False,
                                  "rate not identifiable")
    if not converged:
        return kinetics.FitResult(np.nan, np.nan, float(np.linalg.norm(y)), False,
                                  "fit did not converge")
    ok = bool(np.isfinite(time_constant) and time_constant > 0.0)
    return kinetics.FitResult(float(a), time_constant, float(np.linalg.norm(r)), ok,
                              "" if ok else "nonpositive time constant")


@st.composite
def decay_points(draw, noise=st.floats(0.0, 0.3)):
    """+-A exp(-t/T) on 3-320 sorted-uniform or even times, with 0-30 % Gaussian noise."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 320))
    t_max = draw(st.floats(1e-2, 1e4))
    if draw(st.booleans()):
        t = np.sort(rng.uniform(0.0, t_max, n))
    else:
        t = np.linspace(0.0, t_max, n)
    amplitude = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-3, 1e3))
    clean = amplitude * np.exp(-t / (t_max * draw(st.floats(0.05, 20.0))))
    y = clean + draw(noise) * abs(amplitude) * rng.standard_normal(n)
    return t, y


class TestFitMonoexponential:
    def test_noiseless_round_trip(self):
        t = np.linspace(0.0, 600.0, 20)
        y = 1.0 * np.exp(-t / 209.0)
        fit = fit_monoexponential(list(zip(t, y)))
        assert fit.ok
        assert fit.amplitude == pytest.approx(1.0, rel=1e-6)
        assert fit.time_constant == pytest.approx(209.0, rel=1e-6)
        assert fit.residual_norm < 1e-12

    def test_negative_amplitude_round_trip(self):
        t = np.linspace(0.0, 100.0, 15)
        y = -0.7 * np.exp(-t / 30.0)
        fit = fit_monoexponential(list(zip(t, y)))
        assert fit.ok
        assert fit.amplitude == pytest.approx(-0.7, rel=1e-6)
        assert fit.time_constant == pytest.approx(30.0, rel=1e-6)

    def test_noisy_recovery_monte_carlo(self):
        # 1% additive noise, 20 points: 95th percentile of the recovered
        # time-constant error stays below 5%
        t = np.linspace(0.0, 600.0, 20)
        clean = np.exp(-t / 209.0)
        errors = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = clean + 0.01 * rng.standard_normal(t.size)
            fit = fit_monoexponential(list(zip(t, y)))
            assert fit.ok
            errors.append(abs(fit.time_constant - 209.0) / 209.0)
        assert np.percentile(errors, 95) < 0.05

    def test_constant_data_is_a_failure_status(self):
        fit = fit_monoexponential([(0.0, 0.5), (1.0, 0.5), (2.0, 0.5)])
        assert not fit.ok

    def test_growing_data_reports_failure_not_crash(self):
        t = np.linspace(0.0, 10.0, 8)
        y = np.exp(t / 5.0)
        fit = fit_monoexponential(list(zip(t, y)))
        assert not fit.ok

    @pytest.mark.parametrize("t0", [0.0, 5.0])
    def test_equal_times_is_a_failure_status(self, t0):
        # T is not identifiable without a spread of times
        fit = fit_monoexponential([(t0, 1.0), (t0, 0.5), (t0, 0.2)])
        assert not fit.ok
        assert "times" in fit.message

    def test_unidentifiable_rate_is_a_failure_status(self):
        # any fast enough decay fits a single nonzero point exactly
        fit = fit_monoexponential([(0.0, 1.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
        assert not fit.ok
        assert fit.message

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_input_rejected(self, column, bad):
        points = [[0.0, 1.0], [1.0, 0.5], [2.0, 0.25]]
        points[1][column] = bad
        with pytest.raises(ValueError):
            fit_monoexponential(points)

    @pytest.mark.parametrize("noise", [0.01, 0.1, 0.3])
    def test_residual_no_worse_than_scipy_curve_fit(self, noise):
        # oracle: wherever Levenberg-Marquardt on (A, T) succeeds, the
        # projected fit reaches at least as small a residual
        for seed in range(100):
            t, y = noisy_decay(seed, noise)
            fit = fit_monoexponential(list(zip(t, y)))
            ref_ok, ref_residual = curve_fit_reference(t, y)
            if ref_ok:
                assert fit.residual_norm <= ref_residual * (1.0 + 1e-9), seed
            if noise == 0.01:
                assert fit.ok == ref_ok, seed

    def test_step_halving_keeps_a_noisy_fit_on_course(self):
        # 30 % noise: the full Gauss-Newton steps overshoot to a negative rate
        t, y = noisy_decay(324, 0.3)
        fit = fit_monoexponential(list(zip(t, y)))
        ref_ok, ref_residual = curve_fit_reference(t, y)
        assert fit.ok and ref_ok
        assert fit.residual_norm <= ref_residual * (1.0 + 1e-9)

    def test_rate_beyond_the_sampling_is_not_identifiable(self):
        # 5 points: the best fit decays before the second sample, so every
        # faster rate fits as well; the residual reached is still reported
        t, y = noisy_decay(34, 0.3)
        fit = fit_monoexponential(list(zip(t, y)))
        assert not fit.ok
        assert fit.message == "rate not identifiable"
        assert fit.residual_norm == pytest.approx(np.linalg.norm(y[1:]), rel=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_monoexponential([(0.0, 1.0), (1.0, 0.5)])

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            fit_monoexponential([(-1.0, 1.0), (1.0, 0.5), (2.0, 0.2)])

    @pytest.mark.parametrize("points", [
        [(0.0, 1.0), (1.0, 0.5, 9.0), (2.0, 3.0)],  # ragged
        [(0.0, 1.0), (1.0, 0.5, 9.0), (2.0,)],  # ragged, 6 numbers in all
        [(0.0, 1.0, 2.0), (1.0, 0.5, 9.0), (2.0, 0.2, 7.0)],  # three columns
        [0.0, 1.0, 2.0, 0.5],  # flat
        [],
    ])
    def test_points_that_are_not_pairs_rejected(self, points):
        with pytest.raises(ValueError):
            fit_monoexponential(points)

    @staticmethod
    def _assert_close(got, want, y, rel):
        assert (got.ok, got.message) == (want.ok, want.message)
        scale = float(np.linalg.norm(y))  # a residual at round-off is compared to the data
        for g, w, floor in ((got.amplitude, want.amplitude, 0.0),
                            (got.time_constant, want.time_constant, 0.0),
                            (got.residual_norm, want.residual_norm, scale)):
            if math.isnan(w):
                assert math.isnan(g)
            else:
                assert abs(g - w) <= rel * max(abs(w), floor), (g, w)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=decay_points())
    def test_loop_equals_the_reference_loop_from_the_same_seed(self, data):
        # Python floats, one r.r per trial and the early exit change no bit of the loop
        t, y = data
        points = list(zip(t.tolist(), y.tolist()))
        self._assert_close(fit_monoexponential(points),
                           reference_fit(points, seed=kinetics._seed_rate), y, rel=0.0)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=decay_points(noise=st.just(0.0)))
    def test_matches_the_polyfit_seeded_reference_on_exact_decays(self, data):
        # The seeds differ in the last bits.  On noisy data that moves the fit as far
        # as a one-ulp change of one data value moves the reference itself (over 3000
        # seeded draws: up to ~2e-7 in T, and the status of 2-3), so the comparison is
        # made on exact decays, the curves decay_curve returns.
        t, y = data
        points = list(zip(t.tolist(), y.tolist()))
        self._assert_close(fit_monoexponential(points), reference_fit(points), y, rel=1e-12)

    @pytest.mark.parametrize("t, y", [
        ([0.1, 0.1, 0.1, 1.0, 2.0], [0.5, 0.3, 0.2, 0.0, 0.0]),  # the nonzero y at one time
        ([0.0, 0.5, 1.0], [0.0, 0.7, 0.0]),  # one nonzero y
    ])
    def test_seed_falls_back_where_the_log_line_is_undefined(self, t, y):
        # the mean of three 0.1 is not 0.1, so centring alone leaves a spurious slope
        t, y = np.array(t), np.array(y)
        assert kinetics._seed_rate(t, y) == 1.0 / np.ptp(t)
        points = list(zip(t.tolist(), y.tolist()))
        self._assert_close(fit_monoexponential(points), reference_fit(points), y, rel=1e-12)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=decay_points())
    def test_closed_form_seed_matches_polyfit(self, data):
        t, y = data
        nz = y != 0.0
        ly = np.log(np.abs(y[nz]))
        slope = np.polyfit(t[nz], ly, 1)[0]
        # round-off in either slope scales with |log y| over the spread of times
        scale = max(abs(slope), np.abs(ly).max() / np.ptp(t[nz]))
        assert abs(kinetics._seed_rate(t, y) - -slope) <= 1e-12 * scale


class TestDetectionIdentities:
    def test_unit_signal_at_ideal_steady_state(self, default_params):
        eps = epsilon(default_params)
        so = closed_form_so(40, eps)
        assert signal_from_singlet_order(so, eps) == pytest.approx(1.0, rel=1e-12)

    def test_two_thirds_at_unitary_bound(self, default_params):
        eps = epsilon(default_params)
        bound = unitary_max_order(thermal_populations(eps), SINGLET_ORDER)
        assert signal_from_singlet_order(bound, eps) == pytest.approx(2 / 3, rel=1e-9)

    def test_signal_ratios_independent_of_polarization(self):
        # the engine is linear in eps: normalized quantities are identical
        # for any polarization
        hot = SpinSystemParams(temperature=2980.0)
        cold = SpinSystemParams(temperature=29.8)
        assert run_kinetic(6, 28.0, 0.0, hot).signal == pytest.approx(
            run_kinetic(6, 28.0, 0.0, cold).signal, rel=1e-12
        )
        assert zeeman_enhancement_ratio(6, 28.0, 18.0, hot) == pytest.approx(
            zeeman_enhancement_ratio(6, 28.0, 18.0, cold), rel=1e-12
        )


class TestExactMatrixOracle:
    """The first-order engine against full products of the exact matrices.

    The exact route keeps every power of eps; its outputs approach the
    first-order engine linearly as eps -> 0, which pins the linearization
    as the correct limit rather than an approximation artifact.
    """

    @staticmethod
    def _exact_signal(n_p, tau, t1, ts, eps):
        import scipy.linalg

        rate = calibrate_rates(t1, ts, eps)
        reset = scipy.linalg.expm(rate.r * tau)
        cycle = [permutation_matrix(Permutation.PI124).m, permutation_matrix(Permutation.PI142).m]
        p = thermal_populations(eps).p
        for k in range(n_p):  # reset, then pi124 and pi142 in turn
            p = cycle[k % 2] @ (reset @ p)
        so = measure_order(PopulationVector(p), SINGLET_ORDER)
        return signal_from_singlet_order(so, eps)

    def test_linearized_engine_is_the_vanishing_polarization_limit(self):
        t1, ts, tau = 7.36, 214.0, 28.0
        linear = run_kinetic(6, tau, 0.0, SpinSystemParams(t1=t1, ts=ts)).signal
        exact_tiny = self._exact_signal(6, tau, t1, ts, 1e-8)
        assert exact_tiny == pytest.approx(linear, abs=1e-7)

    def test_exact_route_deviates_linearly_in_polarization(self):
        t1, ts, tau = 7.36, 214.0, 28.0
        linear = run_kinetic(6, tau, 0.0, SpinSystemParams(t1=t1, ts=ts)).signal
        gap_small = abs(self._exact_signal(6, tau, t1, ts, 1e-5) - linear)
        gap_large = abs(self._exact_signal(6, tau, t1, ts, 1e-3) - linear)
        assert gap_large / gap_small == pytest.approx(100.0, rel=0.05)
