import math
import re
import warnings

import numpy as np
import pytest

from singletcool import Permutation, SpinSystemParams, coherent, permutation_matrix
from singletcool.coherent import (
    CARRIER_OFFSETS,
    PulseShape,
    Propagator,
    SO_OPERATOR_ST,
    ab_spectrum,
    apsoc_amplitude,
    apsoc_waveform,
    collective_rotation,
    composite_pulse_propagator,
    free_hamiltonian,
    magnetization_overlap,
    omega_delta,
    propagate,
    simulate_permutation,
    spin_operators,
    t00_project,
)

# transfer-matrix fidelity of the bundled pulse sequence at its nominal
# duration (engine regression; the shape needs ~8x the nominal duration to
# complete the adiabatic passage, see test_eight_fold_duration_realizes_cycle)
FIDELITY_REFERENCE = 0.7081651662
# endpoint value of the raw coefficient polynomial times the peak amplitude,
# frozen from a 50-digit evaluation of the tabulated coefficients
APSOC_ENDPOINT_REFERENCE = 402100343.92785239
COEFF_SUM_REFERENCE = 353570.48262469


@pytest.fixture
def horner_4x4_only(monkeypatch):
    """Make `_horner` raise on any stack but 4x4; returns the shapes it ran on.

    A real step runs it on 4x4 stacks only (cos/sin from W = Y Y), a complex
    step on the 8x8 real form, so this shows which path a call takes.
    """
    horner, shapes = coherent._horner, []

    def checked(x, coeffs):
        shapes.append(x.shape[1:])
        if x.shape[1:] != (4, 4):
            raise AssertionError(f"_horner ran on a {x.shape[1]}x{x.shape[2]} stack")
        return horner(x, coeffs)

    monkeypatch.setattr(coherent, "_horner", checked)
    return shapes


class TestSpinOperators:
    def test_commutation_relations(self):
        ops = spin_operators()
        for x, y, z in (
            (ops.i1x, ops.i1y, ops.i1z),
            (ops.i2x, ops.i2y, ops.i2z),
        ):
            np.testing.assert_allclose(x @ y - y @ x, 1j * z, atol=1e-15)
            np.testing.assert_allclose(y @ z - z @ y, 1j * x, atol=1e-15)
            np.testing.assert_allclose(z @ x - x @ z, 1j * y, atol=1e-15)

    def test_different_spins_commute(self):
        ops = spin_operators()
        for a in (ops.i1x, ops.i1y, ops.i1z):
            for b in (ops.i2x, ops.i2y, ops.i2z):
                np.testing.assert_allclose(a @ b - b @ a, np.zeros((4, 4)), atol=1e-15)

    def test_basis_change_unitary(self):
        v = spin_operators().product_to_st
        np.testing.assert_allclose(v @ v.conj().T, np.eye(4), atol=1e-15)

    def test_basis_change_columns(self):
        v = spin_operators().product_to_st
        r2 = 1 / np.sqrt(2)
        np.testing.assert_allclose(v[:, 0], [0, r2, -r2, 0], atol=1e-15)  # singlet
        np.testing.assert_allclose(v[:, 1], [1, 0, 0, 0], atol=1e-15)     # |aa>
        np.testing.assert_allclose(v[:, 2], [0, r2, r2, 0], atol=1e-15)   # central triplet
        np.testing.assert_allclose(v[:, 3], [0, 0, 0, 1], atol=1e-15)     # |bb>

    def test_product_states_resolve_into_singlet_triplet(self):
        # |ab> = (|central> + |singlet>)/sqrt(2), |ba> = (|central> - |singlet>)/sqrt(2)
        v = spin_operators().product_to_st
        ab = v.conj().T @ np.array([0, 1, 0, 0], dtype=complex)
        ba = v.conj().T @ np.array([0, 0, 1, 0], dtype=complex)
        r2 = 1 / np.sqrt(2)
        np.testing.assert_allclose(ab, [r2, 0, r2, 0], atol=1e-15)
        np.testing.assert_allclose(ba, [-r2, 0, r2, 0], atol=1e-15)


class TestFreeHamiltonian:
    def test_hermitian(self, default_params):
        h = free_hamiltonian(default_params, offset_hz=12.0)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)

    def test_singlet_is_eigenstate_under_magnetic_equivalence(self):
        params = SpinSystemParams(delta_shift=0.0)
        h = free_hamiltonian(params, offset_hz=0.0)
        v = spin_operators().product_to_st
        singlet = v[:, 0]
        projector = np.outer(singlet, singlet.conj())
        np.testing.assert_allclose(h @ projector, projector @ h, atol=1e-12)

    @pytest.mark.parametrize(
        "params, offset_hz, name",
        [
            (SpinSystemParams(j_coupling=1e308), 0.0, "2*pi*J"),
            (SpinSystemParams(delta_shift=1e308), 0.0, "omega_delta"),
            (SpinSystemParams(b0=1e308), 0.0, "omega_delta"),
            (SpinSystemParams(), -1e308, "2*pi*offset_hz"),
        ],
    )
    def test_rejects_a_non_finite_frequency_by_name(self, params, offset_hz, name):
        # an infinite frequency times the zero entries of the operators is nan;
        # it is rejected before that, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"non-finite frequency {name}")):
                free_hamiltonian(params, offset_hz)

    def test_shift_difference_at_stated_field(self):
        params = SpinSystemParams(b0=16.40)
        assert omega_delta(params) / (2 * np.pi) == pytest.approx(10.01, abs=5e-3)

    def test_singlet_population_conserved_under_free_evolution(self, rng):
        # with no shift difference the singlet is dynamically decoupled for
        # any coupling strength and any evolution time
        v = spin_operators().product_to_st
        singlet = v[:, 0]
        for _ in range(10):
            params = SpinSystemParams(
                delta_shift=0.0, j_coupling=float(rng.uniform(-200.0, 200.0) or 1.0)
            )
            h = free_hamiltonian(params, offset_hz=float(rng.uniform(-50, 50)))
            u = propagate(lambda t: h, (0.0, float(rng.uniform(0.01, 2.0))), 3)
            assert abs(np.vdot(singlet, u.u @ singlet)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_inner_splitting_from_exact_diagonalization(self):
        params = SpinSystemParams(b0=16.40)
        dnu = omega_delta(params) / (2 * np.pi)
        j = params.j_coupling
        lines = ab_spectrum(params)
        freqs = sorted(f for f, _ in lines)
        splitting = freqs[2] - freqs[1]
        assert splitting == pytest.approx(np.hypot(j, dnu) - j, rel=1e-12)
        assert splitting == pytest.approx(0.917, abs=1e-3)
        # the weak-mixing estimate dnu^2/(2J) is good to ~2%
        assert splitting == pytest.approx(dnu**2 / (2 * j), rel=2e-2)


class TestAbSpectrum:
    def test_four_lines_antisymmetric(self, default_params):
        lines = ab_spectrum(default_params)
        assert len(lines) == 4
        freqs = [f for f, _ in lines]
        np.testing.assert_allclose(freqs, [-freqs[3], -freqs[2], -freqs[1], -freqs[0]],
                                   atol=1e-9)

    def test_intensity_ratio_matches_two_level_formula(self, default_params):
        # roof effect of the near-equivalent pair: inner/outer intensity
        # ratio equals (C + J)/(C - J) with C = sqrt(J^2 + dnu^2)
        lines = ab_spectrum(default_params)
        lines.sort(key=lambda fr: fr[0])
        inner = lines[1][1]
        outer = lines[0][1]
        j = default_params.j_coupling
        c = np.hypot(j, omega_delta(default_params) / (2 * np.pi))
        assert inner / outer == pytest.approx((c + j) / (c - j), rel=1e-9)
        assert inner / outer > 100  # outer peaks are very weak

    def test_equivalent_pair_shows_single_line(self):
        params = SpinSystemParams(delta_shift=0.0)
        lines = ab_spectrum(params)
        intensities = sorted(i for _, i in lines)
        assert intensities[0] == pytest.approx(0.0, abs=1e-15)
        assert intensities[1] == pytest.approx(0.0, abs=1e-15)

    def test_total_intensity_sum_rule(self):
        totals = []
        for shift in (0.0, 0.02, 0.057, 0.3):
            lines = ab_spectrum(SpinSystemParams(delta_shift=shift))
            totals.append(sum(i for _, i in lines))
        np.testing.assert_allclose(totals, totals[0], atol=1e-12)
        assert totals[0] == pytest.approx(1.0, rel=1e-12)


class TestPulseShape:
    def test_default_loads_21_coefficients(self):
        shape = PulseShape.default()
        assert len(shape.coefficients) == 21
        assert shape.duration == 0.36
        assert shape.max_amplitude == pytest.approx(2 * np.pi * 181.0)

    def test_coefficient_count_enforced(self):
        with pytest.raises(ValueError):
            PulseShape(coefficients=(1.0,) * 20)

    def test_duration_positive(self):
        with pytest.raises(ValueError):
            PulseShape(duration=0.0, coefficients=(1.0,) * 21)

    def test_from_file_round_trip(self, tmp_path):
        shape = PulseShape.default()
        path = tmp_path / "coeffs.txt"
        path.write_text("\n".join(repr(c) for c in shape.coefficients) + "\n")
        loaded = PulseShape.from_file(path)
        assert loaded.coefficients == shape.coefficients

    def test_from_file_rejects_wrong_line_count(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("\n".join(["1.0"] * 20) + "\n")
        with pytest.raises(ValueError):
            PulseShape.from_file(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("duration", float("nan")),
            ("duration", float("inf")),
            ("max_amplitude", float("nan")),
            ("max_amplitude", float("-inf")),
            ("offset_hz", float("nan")),
            ("phase", float("inf")),
        ],
    )
    def test_rejects_non_finite_parameters(self, field, value):
        with pytest.raises(ValueError, match=field):
            PulseShape(coefficients=(1.0,) * 21, **{field: value})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_coefficients(self, bad):
        coeffs = [1.0] * 21
        coeffs[7] = bad
        with pytest.raises(ValueError, match="finite"):
            PulseShape(coefficients=tuple(coeffs))

    def test_rejects_all_zero_coefficients(self):
        with pytest.raises(ValueError, match="zero"):
            PulseShape(coefficients=(0.0,) * 21)

    def test_array_profile_equals_scalar_profile_bitwise(self):
        shape = PulseShape.default()
        xs = np.linspace(0.0, 1.0, 4001)
        scalar = np.array([shape.profile(float(x)) for x in xs])
        np.testing.assert_array_equal(shape.profile(xs), scalar)

    def test_profile_extrema_reported(self):
        shape = PulseShape.default()
        lo, hi = shape.profile_extrema
        assert lo == pytest.approx(shape.coefficients[0])  # minimum sits at t = 0
        assert hi == pytest.approx(COEFF_SUM_REFERENCE, rel=1e-9)


class TestApsocAmplitude:
    def test_start_value(self):
        shape = PulseShape.default()
        assert apsoc_amplitude(shape, 0.0) == pytest.approx(
            2 * np.pi * 181.0 * (-3.58531e-3), rel=1e-12
        )
        assert apsoc_amplitude(shape, 0.0) == pytest.approx(-4.078, abs=1e-3)

    def test_endpoint_against_extended_precision(self):
        shape = PulseShape.default()
        assert apsoc_amplitude(shape, shape.duration) == pytest.approx(
            2 * np.pi * 181.0 * COEFF_SUM_REFERENCE, rel=1e-12
        )
        assert apsoc_amplitude(shape, shape.duration) == pytest.approx(
            APSOC_ENDPOINT_REFERENCE, rel=1e-10
        )

    def test_out_of_range(self):
        shape = PulseShape.default()
        with pytest.raises(ValueError):
            apsoc_amplitude(shape, -1e-3)
        with pytest.raises(ValueError):
            apsoc_amplitude(shape, shape.duration + 1e-3)

    def test_horner_against_extended_precision_power_sum(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        shape = PulseShape.default()
        coeffs = [mp.mpf(repr(c)) for c in shape.coefficients]
        peak = shape.profile_peak
        for x in np.linspace(0.0, 1.0, 1000):
            exact = float(mp.fsum(c * mp.mpf(float(x)) ** i for i, c in enumerate(coeffs)))
            got = shape.profile(float(x))
            # relative where the value is appreciable, and never more than
            # 1e-6 of the profile scale anywhere (cancellation region)
            assert abs(got - exact) <= 1e-6 * max(abs(exact), 1e-3 * peak)

    def test_array_of_times_gives_the_scalar_bits(self):
        shape = PulseShape.default()
        times = np.linspace(0.0, shape.duration, 1001)
        for f in (apsoc_amplitude, apsoc_waveform):
            scalar = np.array([f(shape, t) for t in times.tolist()])
            np.testing.assert_array_equal(f(shape, times), scalar)

    @pytest.mark.parametrize("bad", [-1e-3, 0.36 + 1e-3, float("nan")])
    def test_array_out_of_range(self, bad):
        shape = PulseShape.default()
        times = np.array([0.0, 0.1, bad, 0.2])
        with pytest.raises(ValueError, match=r"t = .* outside \[0, 0.36\]"):
            apsoc_waveform(shape, times)

    def test_waveform_peaks_at_max_amplitude(self):
        shape = PulseShape.default()
        values = [apsoc_waveform(shape, t) for t in np.linspace(0, shape.duration, 2001)]
        assert max(np.abs(values)) == pytest.approx(shape.max_amplitude, rel=1e-6)


class TestPropagate:
    def test_zero_hamiltonian(self):
        u = propagate(lambda t: np.zeros((4, 4), dtype=complex), (0.0, 1.0), 16)
        np.testing.assert_allclose(u.u, np.eye(4), atol=1e-14)

    def test_constant_hamiltonian_any_step_count(self, default_params):
        h = free_hamiltonian(default_params, offset_hz=10.0)
        w, v = np.linalg.eigh(h)
        exact = (v * np.exp(-1j * w * 0.05)) @ v.conj().T
        for n in (1, 7, 64):
            u = propagate(lambda t: h, (0.0, 0.05), n)
            np.testing.assert_allclose(u.u, exact, atol=1e-12)

    def test_step_halving_convergence_on_shaped_pulse(self, default_params):
        shape = PulseShape.default(offset_hz=-35.0)
        ops = spin_operators()
        h0 = free_hamiltonian(default_params, offset_hz=35.0)
        ix = ops.i1x + ops.i2x

        def h_of_t(t):
            return h0 + apsoc_waveform(shape, t) * ix

        span = (0.0, shape.duration)
        reference = propagate(h_of_t, span, 2**16).u
        errors = [
            np.linalg.norm(propagate(h_of_t, span, n).u - reference) for n in (2**9, 2**10, 2**11)
        ]
        assert errors[0] / errors[1] > 3.0  # second-order midpoint rule
        assert errors[1] / errors[2] > 3.0

    def test_rejects_non_hermitian(self):
        # an entry of 1e200 squares past the largest double in the norms of the check
        for entry in (1.0, 1e200):
            h = np.zeros((4, 4), dtype=complex)
            h[0, 1] = entry
            with pytest.raises(ValueError, match="non-Hermitian"):
                propagate(lambda t: h, (0.0, 1.0), 4)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            propagate(lambda t: np.zeros((4, 4), dtype=complex), (0.0, 1.0), 0)

    def test_overflowing_norm_of_a_finite_hamiltonian_is_named(self):
        # finite entries of 1e200 square past the largest double in the Frobenius norms
        h = np.diag([1e200, 0.0, 0.0, -1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                propagate(lambda t: h, (0.0, 1.0), 10)
        assert str(info.value) == "step norm of a finite Hamiltonian overflows (theta = inf)"

    @pytest.mark.parametrize(
        "n_steps",
        [1, coherent._BLOCK_STEPS - 1, coherent._BLOCK_STEPS, 2 * coherent._BLOCK_STEPS + 1],
    )
    def test_matches_sequential_step_product(self, default_params, n_steps):
        # the blocked, batched product against the plain step-by-step loop,
        # on either side of the block edges
        ops = spin_operators()
        h0 = free_hamiltonian(default_params, offset_hz=20.0)
        ix, iy = ops.i1x + ops.i2x, ops.i1y + ops.i2y

        def h_of_t(t):
            return h0 + 300.0 * np.sin(40.0 * t) * ix + 150.0 * np.cos(25.0 * t) * iy

        t0, t1 = 0.01, 0.09
        dt = (t1 - t0) / n_steps
        expected = np.eye(4, dtype=complex)
        for k in range(n_steps):
            w, v = np.linalg.eigh(h_of_t(t0 + (k + 0.5) * dt))
            expected = (v * np.exp(-1j * w * dt)) @ v.conj().T @ expected
        u = propagate(h_of_t, (t0, t1), n_steps)
        np.testing.assert_allclose(u.u, expected, rtol=0, atol=1e-12)

    def test_rejects_non_hermitian_step_in_second_block(self):
        # steps are unit-spaced in time, so t > block + 2 lands inside the second block
        block = coherent._BLOCK_STEPS
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0

        def h_of_t(t):
            return bad if t > block + 2.0 else np.zeros((4, 4), dtype=complex)

        with pytest.raises(ValueError, match="non-Hermitian"):
            propagate(h_of_t, (0.0, 1.5 * block), int(1.5 * block))

    def test_calls_no_eigendecomposition(self, default_params, monkeypatch):
        # every step is exponentiated by matrix products alone
        h = free_hamiltonian(default_params, offset_hz=10.0)
        w, v = np.linalg.eigh(h)
        exact = (v * np.exp(-1j * w * 0.05)) @ v.conj().T

        def no_eigh(*args, **kwargs):
            raise AssertionError("propagate called np.linalg.eigh")

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", no_eigh)
            u = propagate(lambda t: h, (0.0, 0.05), 40)
        np.testing.assert_allclose(u.u, exact, atol=1e-12)

    def test_real_callable_takes_the_real_path(self, default_params, horner_4x4_only):
        # a callable that returns real arrays is exponentiated by cos/sin alone
        h = free_hamiltonian(default_params, offset_hz=10.0)
        w, v = np.linalg.eigh(h)
        exact = (v * np.exp(-1j * w * 0.05)) @ v.conj().T
        u = propagate(lambda t: h.real, (0.0, 0.05), 40)
        np.testing.assert_allclose(u.u, exact, atol=1e-12)
        assert horner_4x4_only

    def test_rejects_nan_hamiltonian(self):
        with pytest.raises(ValueError, match="non-Hermitian"):
            propagate(lambda t: np.full((4, 4), np.nan), (0.0, 1.0), 4)

    @pytest.mark.parametrize("t_span", [(0.0, float("nan")), (float("-inf"), 1.0)])
    def test_rejects_non_finite_time_span(self, t_span):
        with pytest.raises(ValueError, match="finite"):
            propagate(lambda t: np.zeros((4, 4)), t_span, 4)

    def test_rejects_wrong_shape_hamiltonian(self):
        with pytest.raises(ValueError, match=r"\(2, 2\)"):
            propagate(lambda t: np.zeros((2, 2)), (0.0, 1.0), 4)


class TestStepExponentials:
    @pytest.mark.parametrize("norm", [0.0, 1e-8, 1e-2, 0.5, 3.0, 1e3])
    def test_matches_scipy_expm(self, norm):
        # the Taylor and scaling-and-squaring exponential against an
        # independent Pade expm, from the degree-1 polynomial (norm 1e-8)
        # through the squaring branch (norms above 1)
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(int(norm * 1e3) + 11)
        x = rng.standard_normal((32, 4, 4)) + 1j * rng.standard_normal((32, 4, 4))
        h = x + x.conj().swapaxes(-1, -2)
        dt = -0.25  # a negative step runs the evolution backwards
        h *= (norm / abs(dt) / np.linalg.norm(h, axis=(-2, -1)))[:, None, None]
        real = coherent._step_exponentials(h, dt, np.linalg.norm(h, axis=(-2, -1)))
        expected = np.array([expm(-1j * hk * dt) for hk in h])
        atol = 1e-13 * max(1.0, norm)
        np.testing.assert_allclose(real[:, :4, :4] + 1j * real[:, 4:, :4], expected, rtol=0, atol=atol)
        # the result keeps the real form [[Re U, -Im U], [Im U, Re U]]
        np.testing.assert_allclose(real[:, 4:, 4:], real[:, :4, :4], rtol=0, atol=atol)
        np.testing.assert_allclose(real[:, :4, 4:], -real[:, 4:, :4], rtol=0, atol=atol)

    @staticmethod
    def _real_symmetric_stack(norm, dt):
        # 32 random real symmetric h with |h dt|_F = norm
        rng = np.random.default_rng(int(norm * 1e3) + 17)
        x = rng.standard_normal((32, 4, 4))
        h = x + x.swapaxes(-1, -2)
        h *= (norm / abs(dt) / np.linalg.norm(h, axis=(-2, -1)))[:, None, None]
        return h

    @pytest.mark.parametrize("norm", [0.0, 1e-8, 1e-2, 0.5, 3.0, 1e3])
    def test_real_stack_matches_scipy_expm(self, norm):
        # the cos/sin path against an independent Pade expm, from the
        # degree-1 polynomial (norms 0 and 1e-8) through the squaring branch
        # (norms above 1/sqrt(2))
        expm = pytest.importorskip("scipy.linalg").expm
        dt = -0.25  # a negative step runs the evolution backwards
        h = self._real_symmetric_stack(norm, dt)
        theta = math.sqrt(2.0) * norm
        if norm <= 1e-8:
            assert coherent._taylor_degree(theta) == 1
        real = coherent._step_exponentials(h, dt, np.linalg.norm(h, axis=(-2, -1)))
        expected = np.array([expm(-1j * hk * dt) for hk in h])
        atol = 1e-13 * max(1.0, norm)
        np.testing.assert_allclose(real[:, :4, :4] + 1j * real[:, 4:, :4], expected, rtol=0, atol=atol)
        # the result keeps the real form [[Re U, -Im U], [Im U, Re U]]
        np.testing.assert_allclose(real[:, 4:, 4:], real[:, :4, :4], rtol=0, atol=atol)
        np.testing.assert_allclose(real[:, :4, 4:], -real[:, 4:, :4], rtol=0, atol=atol)

    @pytest.mark.parametrize("norm", [0.0, 1e-8, 1e-2, 0.5, 3.0, 1e3])
    def test_real_and_complex_dtype_agree(self, norm):
        # the same Taylor polynomial and squaring, as cos/sin of the real
        # stack and in the 8x8 form of the same stack cast to complex
        dt = -0.25
        h = self._real_symmetric_stack(norm, dt)
        norms = np.linalg.norm(h, axis=(-2, -1))
        real = coherent._step_exponentials(h, dt, norms)
        general = coherent._step_exponentials(h.astype(complex), dt, norms)
        np.testing.assert_allclose(real, general, rtol=0, atol=1e-14 * max(1.0, norm))

    @pytest.mark.parametrize("d", [4, 8])
    @pytest.mark.parametrize("n_coeffs", [1, 2, 3, 9])
    def test_horner_matches_the_power_sum(self, d, n_coeffs):
        # sum_j c_j x^j term by term; one coefficient is degree 0, which the
        # cos and sin polynomials reach at q = 1
        rng = np.random.default_rng(100 * d + n_coeffs)
        x = rng.standard_normal((16, d, d)) / d
        coeffs = list(rng.standard_normal(n_coeffs))
        expected = sum(c * np.linalg.matrix_power(x, j) for j, c in enumerate(coeffs))
        got = coherent._horner(x, coeffs)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)
        if n_coeffs == 1:
            np.testing.assert_array_equal(got, np.broadcast_to(coeffs[0] * np.eye(d), x.shape))

    @pytest.mark.parametrize("theta", [0.0, 1e-9, 0.02, 0.05, 0.5, 1.0])
    def test_degree_bounds_the_taylor_remainder(self, theta):
        q = coherent._taylor_degree(theta)
        remainder = sum(theta**j / math.factorial(j) for j in range(q + 1, q + 40))
        assert remainder <= 2.0**-53
        if q > 1:  # the smallest degree that meets the documented tail bound
            assert theta**q / math.factorial(q) > 2.0**-53 * (1.0 - theta / (q + 1))


class TestPropagator:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            Propagator(np.eye(4) * 1.5)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Propagator(np.full((4, 4), np.nan))

    def test_composition_stays_unitary(self):
        a = collective_rotation(0.3, 0.1)
        b = collective_rotation(1.2, 2.0)
        np.testing.assert_allclose((a @ b).u @ (a @ b).u.conj().T, np.eye(4), atol=1e-12)


class TestCompositePulse:
    def test_ideal_calibration_reaches_minus_z(self):
        u = composite_pulse_propagator(sign=+1, amplitude_scale=1.0)
        assert magnetization_overlap(u, sign=+1) == pytest.approx(1.0, abs=1e-9)

    def test_opposite_sign_reaches_plus_z(self):
        u = composite_pulse_propagator(sign=-1, amplitude_scale=1.0)
        assert magnetization_overlap(u, sign=-1) == pytest.approx(1.0, abs=1e-9)

    def test_compensates_amplitude_miscalibration(self):
        u = composite_pulse_propagator(sign=+1, amplitude_scale=1.2)
        overlap = magnetization_overlap(u, sign=+1)
        assert overlap >= 0.98
        assert overlap == pytest.approx(0.9964654242954862, rel=1e-9)

    def test_beats_plain_90_pulse_under_miscalibration(self):
        composite = magnetization_overlap(
            composite_pulse_propagator(sign=+1, amplitude_scale=1.2), sign=+1
        )
        # a plain 90 about +y sends x to -z at scale 1, overshooting at 1.2
        plain = magnetization_overlap(
            collective_rotation(0.5 * np.pi * 1.2, np.deg2rad(90.0)), sign=+1
        )
        assert plain == pytest.approx(np.cos(np.deg2rad(18.0)), rel=1e-9)
        assert composite > plain

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            composite_pulse_propagator(amplitude_scale=0.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_scale_by_name(self, scale):
        # nan and inf pass a plain <= 0 test and failed later, as a unitarity defect
        with pytest.raises(ValueError, match="amplitude_scale must be finite and positive"):
            composite_pulse_propagator(+1, scale)

    @pytest.mark.parametrize("sign", [0, 2, -2, 0.5])
    def test_rejects_sign_by_name(self, sign):
        # only +1 and -1 are defined; sign 0 or 2 gives an overlap near 0 that reads like a result
        with pytest.raises(ValueError, match=re.escape(f"sign must be +1 or -1, got {sign!r}")):
            composite_pulse_propagator(sign)
        with pytest.raises(ValueError, match=re.escape(f"sign must be +1 or -1, got {sign!r}")):
            magnetization_overlap(composite_pulse_propagator(+1), sign)


@pytest.fixture(scope="module")
def permutation_runs():
    params = SpinSystemParams()
    return {
        kind: simulate_permutation(kind, params, n_steps=4000)
        for kind in (Permutation.PI124, Permutation.PI142)
    }


class TestSimulatePermutation:
    def test_doubly_stochastic(self, permutation_runs):
        for tm, _ in permutation_runs.values():
            np.testing.assert_allclose(tm.m.sum(axis=0), np.ones(4), atol=1e-9)
            np.testing.assert_allclose(tm.m.sum(axis=1), np.ones(4), atol=1e-9)

    def test_fidelity_regression(self, permutation_runs):
        for kind, (_, fid) in permutation_runs.items():
            assert fid == pytest.approx(FIDELITY_REFERENCE, rel=1e-5)

    def test_mirror_symmetry_of_the_two_sequences(self, permutation_runs):
        f124 = permutation_runs[Permutation.PI124][1]
        f142 = permutation_runs[Permutation.PI142][1]
        assert f124 == pytest.approx(f142, rel=1e-9)

    def test_central_triplet_nearly_untouched(self, permutation_runs):
        # the central state is a bystander of both cycles
        for tm, _ in permutation_runs.values():
            assert tm.m[2, 2] > 0.95

    def test_composition_returns_near_identity(self, permutation_runs):
        t124 = permutation_runs[Permutation.PI124][0].m
        t142 = permutation_runs[Permutation.PI142][0].m
        f124 = permutation_runs[Permutation.PI124][1]
        f142 = permutation_runs[Permutation.PI142][1]
        composed = t142 @ t124
        identity_fidelity = float(np.trace(composed) / 4.0)
        assert identity_fidelity >= f124 * f142

    def test_frame_sign_flip_swaps_realized_cycles(self, permutation_runs, default_params):
        flipped, _ = simulate_permutation(
            Permutation.PI124, default_params, n_steps=4000, frame_sign=-1
        )
        np.testing.assert_allclose(
            flipped.m, permutation_runs[Permutation.PI142][0].m, atol=1e-9
        )

    def test_ideal_permutation_unitary_has_unit_fidelity(self, default_params):
        # fidelity definition check on an exactly ideal unitary
        v = spin_operators().product_to_st
        target = permutation_matrix(Permutation.PI124).m
        u_ideal = Propagator(v @ target.astype(complex) @ v.conj().T)
        transfer = np.abs(v.conj().T @ u_ideal.u @ v) ** 2
        assert np.trace(target.T @ transfer) / 4.0 == pytest.approx(1.0, abs=1e-12)

    def test_matches_propagate_driven_by_scalar_waveform(self, default_params):
        # simulate_permutation builds its Hamiltonian stack in array form;
        # it must agree with the scalar apsoc_waveform callable through propagate
        kind = Permutation.PI124
        shape = PulseShape.default(offset_hz=CARRIER_OFFSETS[kind])
        ops = spin_operators()
        h0 = free_hamiltonian(default_params, offset_hz=-shape.offset_hz)
        ix = ops.i1x + ops.i2x
        n_steps = 3000
        u_pulse = propagate(
            lambda t: h0 + apsoc_waveform(shape, t) * ix, (0.0, shape.duration), n_steps
        )
        u_total = composite_pulse_propagator(sign=+1) @ u_pulse
        v = spin_operators().product_to_st
        expected = np.abs(v.conj().T @ u_total.u @ v) ** 2
        tm, fid = simulate_permutation(kind, default_params, shape=shape, n_steps=n_steps)
        np.testing.assert_allclose(tm.m, expected, rtol=0, atol=1e-12)
        target = permutation_matrix(kind).m
        assert fid == pytest.approx(np.trace(target.T @ expected) / 4.0, abs=1e-12)

    def test_pulse_stack_is_the_scalar_waveform_bit_for_bit(self, default_params, monkeypatch):
        # the shaped pulse evaluates apsoc_waveform on each block of midpoint
        # times; every step Hamiltonian equals the one built from a scalar call
        shape = PulseShape.default(offset_hz=CARRIER_OFFSETS[Permutation.PI142])
        ops = spin_operators()
        h0 = free_hamiltonian(default_params, offset_hz=-shape.offset_hz).real
        rf_x = (ops.i1x + ops.i2x).real
        stacks, step = [], coherent._step_exponentials

        def recorded(h, dt, norms):
            stacks.append(h)
            return step(h, dt, norms)

        monkeypatch.setattr(coherent, "_step_exponentials", recorded)
        n_steps = coherent._BLOCK_STEPS + 7
        simulate_permutation(Permutation.PI142, default_params, shape=shape, n_steps=n_steps)
        dt = shape.duration / n_steps
        expected = [h0 + apsoc_waveform(shape, (k + 0.5) * dt) * rf_x for k in range(n_steps)]
        assert [len(h) for h in stacks] == [coherent._BLOCK_STEPS, 7]
        assert np.concatenate(stacks).tobytes() == np.array(expected).tobytes()

    def test_non_finite_frequency_is_rejected_before_any_step(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a step was exponentiated")

        monkeypatch.setattr(coherent, "_step_exponentials", no_step)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("non-finite frequency 2*pi*J")):
                simulate_permutation(Permutation.PI124, SpinSystemParams(j_coupling=1e308),
                                     n_steps=10)

    def test_complex_hamiltonian_against_step_by_step_eigh(self, default_params):
        # an rf phase off the x axis makes every step Hamiltonian complex
        kind = Permutation.PI124
        shape = PulseShape.default(offset_hz=CARRIER_OFFSETS[kind], phase=0.7)
        ops = spin_operators()
        h0 = free_hamiltonian(default_params, offset_hz=-shape.offset_hz)
        axis = (ops.i1x + ops.i2x) * np.cos(0.7) + (ops.i1y + ops.i2y) * np.sin(0.7)
        n_steps = 1500
        dt = shape.duration / n_steps
        u = np.eye(4, dtype=complex)
        for k in range(n_steps):
            w, v = np.linalg.eigh(h0 + apsoc_waveform(shape, (k + 0.5) * dt) * axis)
            u = (v * np.exp(-1j * w * dt)) @ v.conj().T @ u
        # the transfer matrix cannot see a phase on the ket side, so the
        # z-rotation fold is checked on the pulse propagator itself
        folded = coherent._shaped_pulse_propagator(shape, default_params, n_steps, +1)
        np.testing.assert_allclose(folded.u, u, rtol=0, atol=1e-12)
        v = spin_operators().product_to_st
        u_total = composite_pulse_propagator(sign=+1).u @ u
        expected = np.abs(v.conj().T @ u_total @ v) ** 2
        tm, fid = simulate_permutation(kind, default_params, shape=shape, n_steps=n_steps)
        np.testing.assert_allclose(tm.m, expected, rtol=0, atol=1e-12)
        target = permutation_matrix(kind).m
        assert fid == pytest.approx(np.trace(target.T @ expected) / 4.0, abs=1e-12)

    @pytest.mark.parametrize("phase", [0.0, 0.7])
    def test_runs_horner_on_4x4_stacks_only(self, default_params, horner_4x4_only, phase):
        # the pulse Hamiltonians are real at phase 0, and a nonzero phase is
        # folded into a z-rotation, so every step takes the cos/sin path
        shape = PulseShape.default(offset_hz=-35.0, phase=phase)
        tm, _ = simulate_permutation(Permutation.PI124, default_params, shape=shape, n_steps=300)
        np.testing.assert_allclose(tm.m.sum(axis=0), np.ones(4), atol=1e-9)
        assert horner_4x4_only and set(horner_4x4_only) == {(4, 4)}
        # the guard does catch the 8x8 stack of a complex step
        h = free_hamiltonian(default_params, offset_hz=10.0)
        with pytest.raises(AssertionError, match="8x8"):
            propagate(lambda t: h, (0.0, 0.05), 4)

    def test_canonical_carrier_offsets(self):
        assert CARRIER_OFFSETS[Permutation.PI124] == -35.0
        assert CARRIER_OFFSETS[Permutation.PI142] == +35.0

    def test_no_sequence_for_the_plain_swap(self, default_params):
        with pytest.raises(ValueError):
            simulate_permutation(Permutation.PI12, default_params, n_steps=10)

    def test_overflowing_shape_is_a_non_finite_hamiltonian(self, default_params):
        # the profile overflows float64: the shape is rejected by name before any
        # step, with no numpy warning first, and no caller-supplied callable is
        # blamed for a non-Hermitian matrix
        shape = PulseShape(coefficients=(1e308,) * 21)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="pulse profile peak overflows float64"):
                simulate_permutation(Permutation.PI124, default_params, shape=shape, n_steps=100)

    def test_eight_fold_duration_realizes_cycle(self, default_params):
        # the bundled profile completes its passage when given ~8x its
        # nominal duration: the sequence then cleanly realizes the
        # 1->2->4->1 population cycle.  At the nominal duration the sweep
        # through the singlet-triplet anticrossing is too fast, which is
        # what pins the transfer fidelity at ~0.71 above.
        nominal = PulseShape.default(offset_hz=-35.0)
        stretched = PulseShape(
            max_amplitude=nominal.max_amplitude,
            duration=8 * nominal.duration,
            coefficients=nominal.coefficients,
            offset_hz=nominal.offset_hz,
        )
        tm, fid = simulate_permutation(
            Permutation.PI124, default_params, shape=stretched, n_steps=16000
        )
        assert fid >= 0.98
        target = permutation_matrix(Permutation.PI124).m
        for col in range(4):
            assert np.argmax(tm.m[:, col]) == np.argmax(target[:, col])


class TestT00Project:
    def test_identity_unchanged(self):
        rho = np.eye(4, dtype=complex) / 4.0
        np.testing.assert_allclose(t00_project(rho), rho, atol=1e-15)

    def test_zeeman_order_fully_suppressed(self):
        rho = np.eye(4, dtype=complex) / 4.0 + 0.05 * np.diag([0.0, 1.0, 0.0, -1.0])
        np.testing.assert_allclose(t00_project(rho), np.eye(4) / 4.0, atol=1e-15)

    def test_singlet_order_preserved_on_diagonal_states(self, rng):
        from conftest import random_populations

        for p in random_populations(rng, 50):
            rho = np.diag(p).astype(complex)
            so_before = np.real(np.trace(SO_OPERATOR_ST @ rho))
            so_after = np.real(np.trace(SO_OPERATOR_ST @ t00_project(rho)))
            assert so_after == pytest.approx(so_before, abs=1e-14)

    def test_idempotent_and_trace_preserving(self, rng):
        for _ in range(200):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            once = t00_project(rho)
            twice = t00_project(once)
            np.testing.assert_allclose(twice, once, atol=1e-12)
            assert np.trace(once).real == pytest.approx(1.0, abs=1e-12)

    def test_kills_all_coherences(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        projected = t00_project(rho)
        off_diag = projected - np.diag(np.diag(projected))
        np.testing.assert_allclose(off_diag, np.zeros((4, 4)), atol=1e-15)

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 0.1
        with pytest.raises(ValueError):
            t00_project(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            t00_project(np.eye(4, dtype=complex))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            t00_project(np.full((4, 4), np.nan, dtype=complex))
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 0] = np.nan
        with pytest.raises(ValueError):
            t00_project(rho)


class TestIndependentIntegratorCrossCheck:
    def test_propagator_matches_adaptive_ode_solver(self, default_params):
        # entirely independent route: integrate dU/dt = -i H(t) U with an
        # adaptive Runge-Kutta solver and compare to the midpoint product
        from scipy.integrate import solve_ivp

        shape = PulseShape.default(offset_hz=-35.0)
        ops = spin_operators()
        h0 = free_hamiltonian(default_params, offset_hz=35.0)
        ix = ops.i1x + ops.i2x

        def h_of_t(t):
            return h0 + apsoc_waveform(shape, t) * ix

        def rhs(t, y):
            u = y.reshape(4, 4)
            return (-1j * h_of_t(t) @ u).ravel()

        sol = solve_ivp(
            rhs,
            (0.0, shape.duration),
            np.eye(4, dtype=complex).ravel(),
            method="DOP853",
            rtol=1e-10,
            atol=1e-12,
        )
        u_ode = sol.y[:, -1].reshape(4, 4)
        u_mid = propagate(h_of_t, (0.0, shape.duration), 2**14).u
        assert np.linalg.norm(u_ode - u_mid) < 1e-5

    def test_ab_frequencies_match_full_diagonalization(self, default_params):
        # per-sector energies against a blind full diagonalization
        h = free_hamiltonian(default_params, offset_hz=0.0)
        full = np.sort(np.linalg.eigvalsh(h))
        sector = np.sort(
            [h[0, 0].real, h[3, 3].real, *np.linalg.eigvalsh(h[1:3, 1:3])]
        )
        np.testing.assert_allclose(sector, full, atol=1e-9)
