import numpy as np
import pytest

from singletcool import (
    SINGLET_ORDER,
    PopulationVector,
    SpinSystemParams,
    calibrate_rates,
    closed_form_so,
    decay_curve,
    epsilon,
    finite_reset,
    fit_monoexponential,
    measure_order,
    run_ideal,
    run_kinetic,
    signal_from_singlet_order,
    sweep_tau,
    thermal_populations,
    unitary_max_order,
    zeeman_enhancement_ratio,
)

# engine regression values at the reference parameters
# (T1 = 7.36 s, TS = 214 s, tau = 28 s, tau' = 18 s, n_p = 6)
SIGNAL_REFERENCE = 0.9359843666534515
ENHANCEMENT_REFERENCE = 1.350098140870527


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

    def test_mode_rates(self):
        # slowest decaying deviation mode is singlet order at 1/ts, the
        # Zeeman mode decays at 1/t1
        t1, ts = 5.0, 100.0
        r = calibrate_rates(t1, ts, 0.0).r
        v_so = np.array([3.0, -1.0, -1.0, -1.0])
        v_zo = np.array([0.0, 1.0, 0.0, -1.0])
        np.testing.assert_allclose(r @ v_so, -v_so / ts, rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(r @ v_zo, -v_zo / t1, rtol=1e-9, atol=1e-15)


class TestFiniteReset:
    def setup_method(self):
        self.rate = calibrate_rates(7.36, 214.0, 3e-5)

    def test_zero_interval_is_identity(self):
        np.testing.assert_allclose(finite_reset(self.rate, 0.0).m, np.eye(4), atol=1e-14)

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            finite_reset(self.rate, -1.0)

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


class TestRunKinetic:
    def test_ideal_reset_limit_reproduces_ideal_engine(self, default_params):
        eps = epsilon(default_params)
        for n in (0, 1, 2, 5, 8):
            res = run_kinetic(n, 28.0, 0.0, default_params, ideal_resets=True)
            np.testing.assert_allclose(
                res.populations_after_pump.p, run_ideal(n, eps).p, atol=1e-16
            )

    def test_reference_signal_frozen(self, default_params):
        res = run_kinetic(6, 28.0, 0.0, default_params)
        assert res.signal == pytest.approx(SIGNAL_REFERENCE, rel=1e-9)

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

    def test_no_enhancement_means_no_zo(self, default_params):
        assert run_kinetic(4, 28.0, 0.0, default_params).zo_final is None

    def test_domain_errors(self, default_params):
        with pytest.raises(ValueError):
            run_kinetic(-1, 28.0, 0.0, default_params)
        with pytest.raises(ValueError):
            run_kinetic(4, -1.0, 0.0, default_params)
        with pytest.raises(ValueError):
            run_kinetic(4, 28.0, -0.5, default_params)


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

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_monoexponential([(0.0, 1.0), (1.0, 0.5)])

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            fit_monoexponential([(-1.0, 1.0), (1.0, 0.5), (2.0, 0.2)])


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

        from singletcool.protocol import _PERM_MATRICES, Permute, ProtocolSequence, Reset

        rate = calibrate_rates(t1, ts, eps)
        reset = scipy.linalg.expm(rate.r * tau)
        p = thermal_populations(eps).p
        for step in ProtocolSequence.for_permutation_count(n_p).steps:
            if isinstance(step, Reset):
                p = reset @ p
            elif isinstance(step, Permute):
                p = _PERM_MATRICES[step.label] @ p
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
