"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Tolerances are pinned here, not configurable.
"""

import itertools
import math
import time

import numpy as np

from singletcool import (
    Permutation,
    PopulationVector,
    SINGLET_ORDER,
    SpinSystemParams,
    calibrate_rates,
    closed_form_so,
    cycle_matrix,
    decay_curve,
    epsilon,
    finite_reset,
    fit_monoexponential,
    ideal_reset,
    measure_order,
    permutation_matrix,
    run_ideal,
    run_kinetic,
    sweep_tau,
    thermal_populations,
    unitary_max_order,
)
from singletcool.cli import RunConfig, cmd_enhance
from singletcool.coherent import (
    PulseShape,
    ab_spectrum,
    apsoc_waveform,
    collective_rotation,
    free_hamiltonian,
    propagate,
    simulate_permutation,
    spin_operators,
    t00_project,
)

# regression constants frozen from the first oracle runs of this engine
KINETIC_ENHANCEMENT_FROZEN = 1.350098140870527
KINETIC_SIGNAL_FROZEN = 0.9359843666534515


def report(num: int, ok: bool, detail: str) -> str:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def test_criterion_01_closed_form_equivalence():
    eps = 1e-4
    start = time.perf_counter()
    worst = max(
        abs(measure_order(run_ideal(n, eps), SINGLET_ORDER) - closed_form_so(n, eps))
        for n in range(21)
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 * eps and elapsed < 1.0
    msg = report(1, ok, f"max |engine - closed form| = {worst:.3e} (tol 1e-16), {elapsed:.3f} s")
    assert ok, msg


def test_criterion_02_steady_state_factor():
    eps = 1e-4
    so = measure_order(run_ideal(40, eps), SINGLET_ORDER)
    bound = unitary_max_order(thermal_populations(eps), SINGLET_ORDER)
    ratio = abs(so) / bound
    ok = abs(ratio - 1.5) <= 1.5 * 1e-9
    msg = report(2, ok, f"|SO(40)| / unitary bound = {ratio:.12f} (target 1.5, rel 1e-9)")
    assert ok, msg


def test_criterion_03_zeeman_enhancement():
    ideal_cfg = RunConfig(mode="ideal", n_p=40)
    lines, error = cmd_enhance(ideal_cfg)
    ideal_ratio = float(lines[1].split(",")[0])

    kinetic_cfg = RunConfig(mode="kinetic", n_p=6, tau=28.0, tau_prime=18.0)
    lines, error_k = cmd_enhance(kinetic_cfg)
    kinetic_ratio = float(lines[1].split(",")[0])

    ok = (
        error is None
        and error_k is None
        and abs(ideal_ratio - 1.5) <= 1.5 * 1e-9
        and 1.21 <= kinetic_ratio <= 1.5
        and abs(kinetic_ratio - KINETIC_ENHANCEMENT_FROZEN) <= 1e-9 * KINETIC_ENHANCEMENT_FROZEN
    )
    msg = report(
        3,
        ok,
        f"ideal ratio = {ideal_ratio:.12f} (target 1.5), kinetic ratio = "
        f"{kinetic_ratio:.12f} (band [1.21, 1.5], frozen {KINETIC_ENHANCEMENT_FROZEN})",
    )
    assert ok, msg


def test_criterion_04_kinetic_pump_level():
    params = SpinSystemParams(t1=7.36, ts=214.0)
    eps = epsilon(params)
    bound = unitary_max_order(thermal_populations(eps), SINGLET_ORDER)
    start = time.perf_counter()
    results = {n: run_kinetic(n, 28.0, 0.0, params) for n in range(6, 13)}
    elapsed = time.perf_counter() - start

    in_band = all(0.85 <= abs(r.signal) <= 1.0 for r in results.values())
    factors = {n: abs(r.signal) * eps * np.sqrt(3) / 4 / bound for n, r in results.items()}
    above_unitary = all(f >= 1.27 for f in factors.values())
    frozen_ok = abs(results[6].signal - KINETIC_SIGNAL_FROZEN) <= 1e-9 * KINETIC_SIGNAL_FROZEN
    ok = in_band and above_unitary and frozen_ok and elapsed < 1.0
    msg = report(
        4,
        ok,
        f"|signal| at n_p=6..12 in [{min(abs(r.signal) for r in results.values()):.4f}, "
        f"{max(abs(r.signal) for r in results.values()):.4f}] (band [0.85, 1.0]); "
        f"SO/bound >= {min(factors.values()):.4f} (floor 1.27); {elapsed:.3f} s",
    )
    assert ok, msg


def test_criterion_05_rate_calibration():
    t1, ts = 7.36, 214.0
    rate = calibrate_rates(t1, ts, 0.0)
    w, v = np.linalg.eig(rate.r)
    w, v = w.real, v.real

    def mode_rate(direction):
        overlaps = [abs(np.dot(v[:, i], direction)) / np.linalg.norm(v[:, i]) for i in range(4)]
        return -w[int(np.argmax(overlaps))]

    v_so = np.array([3.0, -1.0, -1.0, -1.0]) / np.sqrt(12)
    v_zo = np.array([0.0, 1.0, 0.0, -1.0]) / np.sqrt(2)
    so_rate = mode_rate(v_so)
    zo_rate = mode_rate(v_zo)
    rates_ok = abs(so_rate - 1 / ts) <= 1e-9 / ts and abs(zo_rate - 1 / t1) <= 1e-9 / t1

    params = SpinSystemParams(t1=t1, ts=ts)
    curve = decay_curve(6, 28.0, np.linspace(0.0, 600.0, 20), params)
    fit = fit_monoexponential(curve)
    fit_ok = fit.ok and abs(fit.time_constant - ts) <= 0.02 * ts

    ok = rates_ok and fit_ok
    msg = report(
        5,
        ok,
        f"eigenmode rates: SO {so_rate:.10f} vs 1/TS {1 / ts:.10f}, "
        f"ZO {zo_rate:.10f} vs 1/T1 {1 / t1:.10f}; fitted TS = {fit.time_constant:.3f} "
        f"({abs(fit.time_constant - ts) / ts:.2%} off, tol 2%)",
    )
    assert ok, msg


def test_criterion_06_tau_sweep_shape():
    params = SpinSystemParams()
    grid = np.logspace(np.log10(0.5), np.log10(240.0), 40)
    start = time.perf_counter()
    sweep = sweep_tau(6, grid, params)
    elapsed = time.perf_counter() - start

    sig = np.array([abs(s) for _, s in sweep.points])
    diffs = np.diff(sig)
    diffs = diffs[diffs != 0.0]
    unimodal = int(np.sum(np.diff(np.sign(diffs)) != 0)) == 1
    edges_below = sig[0] < sig.max() and sig[-1] < sig.max()
    ok = unimodal and edges_below and elapsed < 5.0
    msg = report(
        6,
        ok,
        f"unimodal = {unimodal}, edges below max = {edges_below}; model optimum "
        f"tau* = {sweep.tau_star:.2f} s (reported, not pinned); {elapsed:.3f} s",
    )
    assert ok, msg


def test_criterion_07_ab_spectrum():
    params = SpinSystemParams(b0=16.40, delta_shift=0.057)  # 10.01 Hz shift difference
    lines = ab_spectrum(params)
    freqs = sorted(f for f, _ in lines)
    splitting = freqs[2] - freqs[1]
    target = math.hypot(54.141, 10.01) - 54.141
    split_ok = abs(splitting - target) <= 1e-3

    by_freq = sorted(lines, key=lambda fr: fr[0])
    outer = (by_freq[0][1], by_freq[3][1])
    inner = (by_freq[1][1], by_freq[2][1])
    intensity_ok = max(outer) < min(inner)
    ok = split_ok and intensity_ok
    msg = report(
        7,
        ok,
        f"inner splitting = {splitting:.5f} Hz vs {target:.5f} Hz (tol 1e-3); "
        f"outer/inner intensity = {max(outer) / min(inner):.4f}",
    )
    assert ok, msg


def test_criterion_08_coherent_permutation_realization():
    params = SpinSystemParams()
    start = time.perf_counter()
    runs = {
        kind: simulate_permutation(kind, params)  # default step count
        for kind in (Permutation.PI124, Permutation.PI142)
    }
    elapsed = time.perf_counter() - start

    stochastic = all(
        np.allclose(tm.m.sum(axis=0), 1.0, atol=1e-9)
        and np.allclose(tm.m.sum(axis=1), 1.0, atol=1e-9)
        for tm, _ in runs.values()
    )
    pattern = all(
        all(
            np.argmax(tm.m[:, col]) == np.argmax(permutation_matrix(kind).m[:, col])
            for col in range(4)
        )
        for kind, (tm, _) in runs.items()
    )
    fidelities = {kind.value: fid for kind, (_, fid) in runs.items()}
    high_fidelity = all(fid >= 0.90 for fid in fidelities.values())
    ok = stochastic and pattern and high_fidelity and elapsed < 30.0
    msg = report(
        8,
        ok,
        f"doubly stochastic = {stochastic}, argmax pattern = {pattern}, "
        f"fidelities = {fidelities} (floor 0.90); {elapsed:.1f} s",
    )
    # The bundled polynomial profile at its nominal 0.36 s duration sweeps the
    # singlet-triplet anticrossing at ~640 Hz/s against a ~2.7 Hz half-gap
    # (Landau-Zener jump probability ~0.55), so the adiabatic exchange only
    # partially completes and the transfer fidelity saturates near 0.71.  The
    # identical sequence passes cleanly when the same profile is stretched to
    # ~8x the duration (fidelity 0.985, correct cycle pattern; see
    # test_coherent.py::test_eight_fold_duration_realizes_cycle), which
    # isolates the failure to the bundled pulse duration/shape metadata
    # rather than the simulation.  Kept faithful and red rather than loosened.
    assert ok, msg


def test_criterion_09_unitary_bound_oracle():
    from singletcool import ZEEMAN_ORDER

    rng = np.random.default_rng(7)
    start = time.perf_counter()
    perms = list(itertools.permutations(range(4)))
    checked = 0
    for _ in range(1000):
        raw = rng.random(4) + 1e-9
        p = raw / raw.sum()
        pop = PopulationVector(p)
        for obs in (SINGLET_ORDER, ZEEMAN_ORDER):
            brute = max(math.fsum(obs.eigenvalues * p[list(perm)]) for perm in perms)
            if unitary_max_order(pop, obs) != brute:
                msg = report(9, False, f"mismatch at p = {p!r} for {obs.kind}")
                raise AssertionError(msg)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 1000 and elapsed < 1.0
    msg = report(9, ok, f"{checked} random vectors x 2 observables, exact match; {elapsed:.3f} s")
    assert ok, msg


def test_criterion_10_property_suites():
    rng = np.random.default_rng(11)
    params = SpinSystemParams()
    rate = calibrate_rates(params.t1, params.ts, 3e-5)

    # column stochasticity of every transfer-matrix constructor
    worst_colsum = 0.0
    for _ in range(200):
        eps = float(rng.uniform(0.0, 0.5))
        tau = float(10 ** rng.uniform(-3, 3))
        for tm in (
            permutation_matrix(Permutation.PI124),
            permutation_matrix(Permutation.PI142),
            permutation_matrix(Permutation.PI12),
            ideal_reset(eps),
            cycle_matrix(eps),
            finite_reset(rate, tau),
        ):
            worst_colsum = max(worst_colsum, float(np.max(np.abs(tm.m.sum(axis=0) - 1.0))))
            assert tm.m.min() >= 0.0
    stochastic_ok = worst_colsum <= 1e-12

    # semigroup law of the finite reset
    worst_semigroup = 0.0
    for _ in range(200):
        t1, t2 = (float(10 ** rng.uniform(-2, 2.3)) for _ in range(2))
        gap = np.max(
            np.abs(
                finite_reset(rate, t1).m @ finite_reset(rate, t2).m
                - finite_reset(rate, t1 + t2).m
            )
        )
        worst_semigroup = max(worst_semigroup, float(gap))
    semigroup_ok = worst_semigroup <= 1e-10

    # unitarity of propagators: random constant Hamiltonians, random hard
    # pulses, and two shaped pulses
    worst_unitarity = 0.0
    for _ in range(200):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (a + a.conj().T) * 50.0
        u = propagate(lambda t: h, (0.0, float(rng.uniform(0.001, 0.1))), int(rng.integers(1, 9)))
        worst_unitarity = max(
            worst_unitarity, float(np.linalg.norm(u.u @ u.u.conj().T - np.eye(4)))
        )
        rot = collective_rotation(float(rng.uniform(0, 2 * np.pi)), float(rng.uniform(0, 2 * np.pi)))
        worst_unitarity = max(
            worst_unitarity, float(np.linalg.norm(rot.u @ rot.u.conj().T - np.eye(4)))
        )
    shape = PulseShape.default(offset_hz=-35.0)
    ops = spin_operators()
    h0 = free_hamiltonian(params, offset_hz=35.0)
    ix = ops.i1x + ops.i2x
    for n in (300, 701):
        u = propagate(lambda t: h0 + apsoc_waveform(shape, t) * ix, (0.0, shape.duration), n)
        worst_unitarity = max(
            worst_unitarity, float(np.linalg.norm(u.u @ u.u.conj().T - np.eye(4)))
        )
    unitarity_ok = worst_unitarity <= 1e-9

    # idempotence of the rank-0 filter
    worst_idem = 0.0
    for _ in range(200):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        once = t00_project(rho)
        worst_idem = max(worst_idem, float(np.max(np.abs(t00_project(once) - once))))
    idempotent_ok = worst_idem <= 1e-12

    ok = stochastic_ok and semigroup_ok and unitarity_ok and idempotent_ok
    msg = report(
        10,
        ok,
        f"colsum dev {worst_colsum:.2e} (tol 1e-12); semigroup dev {worst_semigroup:.2e} "
        f"(tol 1e-10); unitarity defect {worst_unitarity:.2e} (tol 1e-9); "
        f"t00 idempotence dev {worst_idem:.2e} (tol 1e-12)",
    )
    assert ok, msg
