import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singletcool
from singletcool import coherent, protocol
from singletcool.cli import (
    EXIT_COMPUTE,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    RunConfig,
    _build_parser,
    build_config,
    main,
)

COMMANDS = ["pump", "sweep-tau", "decay", "enhance", "coherent-check"]


def run_cli(tmp_path, name, *args):
    """Run a command writing to a temp file; return (exit_code, lines)."""
    out = tmp_path / f"{name}.csv"
    code = main([*args, "--out", str(out)])
    lines = out.read_text().splitlines() if out.exists() else []
    return code, lines


def data_rows(lines):
    return [ln for ln in lines[1:] if not ln.startswith("#")]


class TestPumpCommand:
    def test_ideal_columns_and_alternation(self, tmp_path):
        code, lines = run_cli(tmp_path, "pump", "pump", "--mode", "ideal", "--np", "12")
        assert code == EXIT_OK
        assert lines[0] == "n_p,so,signal,closed_form_so"
        rows = data_rows(lines)
        assert len(rows) == 13
        signals = [float(r.split(",")[2]) for r in rows]
        assert signals[0] == 0.0
        mags = np.abs(signals)
        assert all(mags[i] < mags[i + 1] for i in range(len(mags) - 1))
        assert all(np.sign(signals[i]) == (-1) ** i for i in range(1, 13))

    def test_ideal_matches_closed_form_column(self, tmp_path):
        code, lines = run_cli(tmp_path, "pump", "pump", "--mode", "ideal", "--np", "8")
        for row in data_rows(lines):
            _, so, _, cf = row.split(",")
            assert float(so) == pytest.approx(float(cf), abs=1e-15)

    def test_kinetic_plateau_by_six_permutations(self, tmp_path):
        code, lines = run_cli(
            tmp_path, "pumpk", "pump", "--mode", "kinetic", "--np", "12", "--tau", "28"
        )
        assert code == EXIT_OK
        assert lines[0] == "n_p,so,signal"
        mags = [abs(float(r.split(",")[2])) for r in data_rows(lines)]
        assert mags[6] > 0.85
        assert abs(mags[12] - mags[6]) < 0.005 * mags[12]

    def test_rejects_bad_mode(self, tmp_path):
        code, _ = run_cli(tmp_path, "bad", "pump", "--mode", "coherent-check")
        assert code == EXIT_CONFIG

    def test_kinetic_row_zero_is_exactly_zero(self, tmp_path):
        code, lines = run_cli(tmp_path, "pumpk0", "pump", "--mode", "kinetic", "--np", "4")
        assert code == EXIT_OK
        assert data_rows(lines)[0] == "0,0.0,0.0"

    @pytest.mark.parametrize("tau_ev", [0.0, 50.0])
    def test_kinetic_rows_equal_separate_runs(self, tmp_path, tau_ev):
        code, lines = run_cli(
            tmp_path, "pumpkrows", "pump", "--mode", "kinetic", "--np", "9",
            "--tau", "28", "--tau-ev", str(tau_ev),
        )
        assert code == EXIT_OK
        params = singletcool.SpinSystemParams()
        eps = singletcool.epsilon(params)
        rows = data_rows(lines)
        assert len(rows) == 10
        for k, row in enumerate(rows):
            n, so, sig = row.split(",")
            signal = singletcool.run_kinetic(k, 28.0, tau_ev, params).signal
            assert int(n) == k
            assert float(sig) == signal
            assert float(so) == signal * eps * np.sqrt(3.0) / 4.0

    @staticmethod
    def _pumps_per_run(tmp_path, monkeypatch, *args):
        spy = mock.Mock(wraps=protocol._pump)
        monkeypatch.setattr(protocol, "_pump", spy)
        code, lines = run_cli(tmp_path, "onepump", *args)
        assert code == EXIT_OK
        return spy.call_count, lines

    def test_kinetic_mode_runs_one_pump(self, tmp_path, monkeypatch):
        calls, lines = self._pumps_per_run(
            tmp_path, monkeypatch, "pump", "--mode", "kinetic", "--np", "12")
        assert len(data_rows(lines)) == 13
        assert calls == 1
        calls, lines = self._pumps_per_run(
            tmp_path, monkeypatch, "enhance", "--mode", "kinetic", "--np", "12")
        assert len(lines) == 2
        assert calls == 1

    def test_ideal_mode_runs_one_pump(self, tmp_path, monkeypatch):
        calls, lines = self._pumps_per_run(
            tmp_path, monkeypatch, "enhance", "--mode", "ideal", "--np", "12")
        assert len(lines) == 2
        assert calls == 1
        calls, lines = self._pumps_per_run(
            tmp_path, monkeypatch, "pump", "--mode", "ideal", "--np", "200")
        assert calls == 1
        eps = singletcool.epsilon(singletcool.SpinSystemParams())
        source = eps * protocol.THERMAL_DEVIATION
        rows = data_rows(lines)
        assert len(rows) == 201
        for k, row in enumerate(rows):
            # each row equals the deviation readout of its own pump, bit for bit
            delta = protocol._pump(k, protocol.RESET0, source)[-1]
            sig = singletcool.signal_from_singlet_order(protocol._so_of_deviation(delta), eps)
            so = sig * eps * np.sqrt(3.0) / 4.0
            cf = singletcool.closed_form_so(k, eps)
            assert row.split(",") == [str(k), repr(float(so)), repr(sig), repr(float(cf))]

    def test_ideal_so_cells_within_round_off_of_closed_form(self, tmp_path):
        code, lines = run_cli(tmp_path, "pumpcf", "pump", "--mode", "ideal", "--np", "200")
        assert code == EXIT_OK
        eps = singletcool.epsilon(singletcool.SpinSystemParams())
        rows = [row.split(",") for row in data_rows(lines)]
        assert len(rows) == 201
        assert max(abs(float(so) - float(cf)) for _, so, _, cf in rows) <= 1e-15 * abs(eps)

    def test_ideal_rows_fail_at_the_first_row_off_the_simplex(self, tmp_path, capsys):
        # eps ~ 0.7: the first-order rows leave the simplex part way through the pump
        with pytest.warns(UserWarning, match="outside the high-temperature regime"):
            eps = singletcool.epsilon(singletcool.SpinSystemParams(temperature=0.012))
        deltas = protocol._pump(30, protocol.RESET0, eps * protocol.THERMAL_DEVIATION)
        messages = []
        for delta in deltas:
            try:
                singletcool.PopulationVector(0.25 + delta)
            except ValueError as exc:
                messages.append(str(exc))
        assert len(set(messages)) > 1  # the rows off the simplex fail differently
        code, lines = run_cli(
            tmp_path, "pumpi2", "pump", "--mode", "ideal", "--temperature", "0.012", "--np", "30"
        )
        assert code == EXIT_COMPUTE
        assert lines == []
        err = capsys.readouterr().err
        assert err.startswith(f"computation failed: {messages[0]}\n")
        assert messages[0] == "negative population -4.403e-03 beyond tolerance"
        # the library checks every row too, and names the same one
        for run in (lambda: singletcool.run_ideal(30, eps),
                    lambda: singletcool.ideal_signal(30, eps),
                    lambda: singletcool.enhance_zeeman(singletcool.run_ideal(30, eps), eps)):
            with pytest.raises(ValueError) as exc:
                run()
            assert err.startswith(f"computation failed: {exc.value}\n")

    def test_pump_maps_no_tau_prime_interval(self, capsys):
        # k_T * tau overflows float64; expm1(-inf) = -1 keeps the map exact, so no warning
        args = ["--t1", "1e-5", "--ts", "1", "--np", "2"]
        assert main(["enhance", *args, "--tau-prime", "1e305"]) == EXIT_OK
        overflowed = capsys.readouterr()
        assert overflowed.err == ""
        # tau' = 1e200 already relaxes to the thermal map exactly
        assert main(["enhance", *args, "--tau-prime", "1e200"]) == EXIT_OK
        assert capsys.readouterr().out == overflowed.out
        for tau in ("--tau-prime", "--tau"):
            assert main(["pump", *args, tau, "1e305"]) == EXIT_OK
            assert capsys.readouterr().err == ""

    def test_huge_singlet_lifetime_is_a_computation_failure(self, tmp_path, capsys):
        # finite but so far above t1 that the rate self-check cannot hold;
        # the calibration is memoized, but a failed one is not, so it fails again
        for _ in range(2):
            code, lines = run_cli(tmp_path, "bigts", "pump", "--ts", "1e12")
            assert code == EXIT_COMPUTE
            assert lines == []
            assert capsys.readouterr().err.startswith("computation failed:")


class TestSweepCommand:
    def test_row_count_and_shape(self, tmp_path):
        code, lines = run_cli(
            tmp_path, "sweep", "sweep-tau", "--np", "6",
            "--tau-grid", "0.1,1,10,28,60,120,240",
        )
        assert code == EXIT_OK
        assert lines[0] == "tau,signal"
        rows = data_rows(lines)
        assert len(rows) == 7
        assert lines[-1].startswith("# optimum:")
        sig = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        assert sig[0.1] < sig[28.0]
        assert sig[240.0] < sig[28.0]

    def test_requires_grid(self, tmp_path):
        code, _ = run_cli(tmp_path, "sweepng", "sweep-tau", "--np", "6")
        assert code == EXIT_CONFIG

    def test_rejects_unsorted_grid(self, tmp_path):
        code, _ = run_cli(
            tmp_path, "sweepbad", "sweep-tau", "--np", "6", "--tau-grid", "10,5,1"
        )
        assert code == EXIT_CONFIG


class TestDecayCommand:
    def test_fit_recovers_ts(self, tmp_path):
        grid = ",".join(str(v) for v in np.linspace(0.0, 600.0, 16))
        code, lines = run_cli(
            tmp_path, "decay", "decay", "--np", "6", "--tau", "28",
            "--tau-ev-grid", grid,
        )
        assert code == EXIT_OK
        summary = lines[-1]
        assert "status = ok" in summary
        t_fit = float(summary.split("time_constant = ")[1].split(",")[0])
        assert t_fit == pytest.approx(214.0, rel=2e-2)

    def test_normalized_curve_invariant_under_joint_scaling(self, tmp_path):
        grid1 = ",".join(str(v) for v in np.linspace(0.0, 400.0, 9))
        grid2 = ",".join(str(2 * v) for v in np.linspace(0.0, 400.0, 9))
        _, lines1 = run_cli(
            tmp_path, "decay1", "decay", "--np", "6", "--tau-ev-grid", grid1,
            "--t1", "7.36", "--ts", "214",
        )
        _, lines2 = run_cli(
            tmp_path, "decay2", "decay", "--np", "6", "--tau-ev-grid", grid2,
            "--t1", "7.36", "--ts", "428",
        )
        s1 = np.array([float(r.split(",")[1]) for r in data_rows(lines1)])
        s2 = np.array([float(r.split(",")[1]) for r in data_rows(lines2)])
        np.testing.assert_allclose(s1 / s1[0], s2 / s2[0], rtol=1e-9)

    def test_single_point_grid_rejected(self, tmp_path):
        code, _ = run_cli(
            tmp_path, "decay1pt", "decay", "--np", "6", "--tau-ev-grid", "10.0"
        )
        assert code == EXIT_CONFIG

    def test_fit_failure_exit_code(self, tmp_path):
        # n_p = 0 pumps nothing: the curve is identically zero and the fit
        # must report failure through the summary and the exit code
        code, lines = run_cli(
            tmp_path, "decayfail", "decay", "--np", "0", "--tau-ev-grid", "0,50,100"
        )
        assert code == EXIT_COMPUTE
        assert "status = failed" in lines[-1]


class TestEnhanceCommand:
    def test_ideal_gain_is_three_halves(self, tmp_path):
        code, lines = run_cli(tmp_path, "enh", "enhance", "--mode", "ideal", "--np", "40")
        assert code == EXIT_OK
        assert lines[0] == "zo_ratio,spin_temperature_ratio"
        ratio, temp_ratio = map(float, lines[1].split(","))
        assert ratio == pytest.approx(1.5, rel=1e-15, abs=0.0)
        assert temp_ratio == pytest.approx(2 / 3, rel=1e-15, abs=0.0)

    def test_kinetic_gain_in_band(self, tmp_path):
        code, lines = run_cli(
            tmp_path, "enhk", "enhance", "--mode", "kinetic", "--np", "6",
            "--tau", "28", "--tau-prime", "18",
        )
        ratio = float(lines[1].split(",")[0])
        assert 1.21 <= ratio <= 1.5
        assert ratio == pytest.approx(1.350098140870527, rel=1e-9)

    @pytest.mark.parametrize("system", [
        {},
        {"gamma": -2.7116e7, "b0": 9.4},
        {"t1": 2.5, "ts": 400.0, "temperature": 77.0},
        {"j": 12.0, "t1": 11.0, "ts": 35.0, "b0": 1.5},
    ], ids=["reference", "negative-gamma", "long-ts", "short-ts"])
    def test_kinetic_ratio_equals_the_library(self, tmp_path, system):
        argv = [x for name, value in system.items() for x in (flag_of(name), repr(value))]
        code, lines = run_cli(
            tmp_path, "enhpin", "enhance", "--mode", "kinetic", "--np", "10",
            "--tau", "21.5", "--tau-prime", "13.0", *argv,
        )
        assert code == EXIT_OK
        params = RunConfig(**system).spin_params()
        ratio = singletcool.zeeman_enhancement_ratio(10, 21.5, 13.0, params)
        assert lines[1].split(",")[0] == repr(float(ratio))

    def test_odd_count_rejected(self, tmp_path):
        code, _ = run_cli(tmp_path, "enhodd", "enhance", "--mode", "ideal", "--np", "5")
        assert code == EXIT_CONFIG

    def test_ratio_independent_of_polarization(self, tmp_path):
        # temperature rescales eps tenfold; every normalized ratio is
        # unchanged because the pipeline is linear in eps
        _, lines_a = run_cli(
            tmp_path, "enha", "enhance", "--mode", "kinetic", "--np", "6",
            "--temperature", "298",
        )
        _, lines_b = run_cli(
            tmp_path, "enhb", "enhance", "--mode", "kinetic", "--np", "6",
            "--temperature", "2980",
        )
        ra = float(lines_a[1].split(",")[0])
        rb = float(lines_b[1].split(",")[0])
        assert ra == pytest.approx(rb, rel=1e-6)


class TestCoherentCheckCommand:
    def test_report_sections(self, tmp_path):
        code, lines = run_cli(
            tmp_path, "coh", "coherent-check", "--n-steps", "600"
        )
        assert code == EXIT_OK
        assert lines[0] == "section,x,y"
        sections = {ln.split(",")[0] for ln in lines[1:]}
        assert {"ab_line", "inner_splitting_hz", "fidelity_pi124",
                "fidelity_pi142", "composite_overlap"} <= sections
        assert sum(ln.startswith("ab_line") for ln in lines) == 4
        assert sum(ln.startswith("composite_overlap") for ln in lines) == 13

    def test_reported_values(self, tmp_path):
        _, lines = run_cli(tmp_path, "cohv", "coherent-check", "--n-steps", "600")
        by_section = {}
        for ln in lines[1:]:
            section, x, y = ln.split(",")
            by_section.setdefault(section, []).append((x, float(y)))
        assert by_section["inner_splitting_hz"][0][1] == pytest.approx(0.92, abs=5e-3)
        for _, fid in by_section["fidelity_pi124"] + by_section["fidelity_pi142"]:
            assert 0.5 < fid <= 1.0
        overlap_at_1 = dict(by_section["composite_overlap"])["1.0"]
        assert overlap_at_1 == pytest.approx(1.0, abs=1e-6)


class TestConfigHandling:
    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# reference scenario\n"
            "mode = kinetic\n"
            "np = 4\n"
            "tau = 28.0\n"
            "ts = 214.0  # seconds\n"
        )
        out = tmp_path / "out.csv"
        code = main(
            ["pump", "--config", str(cfg), "--np", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = data_rows(out.read_text().splitlines())
        assert len(rows) == 3  # flag --np 2 overrides the file's np = 4

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frequency = 10\n")
        assert main(["pump", "--config", str(cfg)]) == EXIT_CONFIG

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("tau 28\n")
        assert main(["pump", "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["pump", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    def test_negative_duration_rejected(self):
        assert main(["pump", "--tau", "-3"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "args",
        [
            ["enhance", "--tau", "nan"],
            ["enhance", "--tau-prime", "nan"],
            ["pump", "--j", "nan"],
            ["pump", "--temperature", "nan"],
            ["pump", "--gamma", "inf"],
            ["pump", "--ts", "inf"],
            ["pump", "--b0", "nan"],
            ["pump", "--tau-ev", "inf"],
            ["sweep-tau", "--tau-grid", "nan"],
            # grids out of the engines' domain are config errors, too
            ["sweep-tau", "--tau-grid=-1,2"],
            ["decay", "--tau-ev-grid=-5,0,10"],
            ["sweep-tau", "--tau-grid=,"],
        ],
        ids=" ".join,
    )
    def test_non_finite_values_rejected(self, tmp_path, args):
        code, lines = run_cli(tmp_path, "nonfinite", *args)
        assert code == EXIT_CONFIG
        assert lines == []

    @pytest.mark.parametrize(
        "args",
        [
            ["pump", "--gamma", "0"],
            ["enhance", "--gamma", "0"],
            ["sweep-tau", "--gamma", "0", "--tau-grid", "1,10"],
            ["decay", "--gamma", "0", "--tau-ev-grid", "0,50,100"],
            ["pump", "--mode", "ideal", "--temperature", "1e-25"],
            ["pump", "--mode", "kinetic", "--temperature", "1e-25"],
            # k_B*T underflows to 0, so eps is infinite
            ["enhance", "--temperature", "1e-308"],
        ],
        ids=" ".join,
    )
    @pytest.mark.filterwarnings("ignore:eps = .* outside the high-temperature regime")
    def test_polarization_outside_model_domain_rejected(self, tmp_path, capsys, args):
        # the population engines need 0 < |eps| < 1
        code, lines = run_cli(tmp_path, "badeps", *args)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert lines == []
        assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_coherent_check_does_not_need_polarization(self, tmp_path):
        code, lines = run_cli(
            tmp_path, "cohg0", "coherent-check", "--gamma", "0", "--n-steps", "200"
        )
        assert code == EXIT_OK
        assert lines[0] == "section,x,y"

    def test_non_finite_value_in_config_file_rejected(self, tmp_path):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("t1 = nan\n")
        assert main(["pump", "--config", str(cfg)]) == EXIT_CONFIG

    def test_unknown_flag_rejected(self):
        assert main(["pump", "--frequency", "3"]) == EXIT_CONFIG

    def test_grid_in_config_file(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("tau_grid = 1,10,100\n")
        out = tmp_path / "sweep.csv"
        code = main(["sweep-tau", "--config", str(cfg), "--np", "4", "--out", str(out)])
        assert code == EXIT_OK
        assert len(data_rows(out.read_text().splitlines())) == 3


def flag_of(name):
    return "--np" if name == "n_p" else "--" + name.replace("_", "-")


# a valid text value for each run key, different from its default
KEY_VALUES = {
    "mode": "ideal", "n_p": "4", "tau": "12.5", "tau_ev": "3.0", "tau_prime": "9.0",
    "j": "20.0", "delta_ppm": "0.5", "b0": "9.4", "gamma": "6.7e7", "temperature": "310",
    "t1": "5.0", "ts": "150.0", "n_steps": "600", "out": "run.csv",
    "tau_grid": "1, 10,100", "tau_ev_grid": "0,50,100",
}


class TestRunKeyTable:
    # every RunConfig field is one run key: a flag and a config-file key

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_flag_and_config_file_key_agree(self, tmp_path, name):
        value = KEY_VALUES[name]
        from_flag = build_config(_build_parser().parse_args(["pump", flag_of(name), value]))
        assert getattr(from_flag, name) != getattr(RunConfig(), name)
        for key in (name, flag_of(name)[2:]):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {value}\n")
            args = _build_parser().parse_args(["pump", "--config", str(cfg)])
            assert build_config(args) == from_flag

    def test_defaults_are_the_reference_system(self):
        # the spin keys are read off SpinSystemParams; n_steps, a literal, is pinned here
        assert RunConfig().spin_params() == singletcool.SpinSystemParams()
        assert RunConfig().n_steps == coherent.DEFAULT_PULSE_STEPS

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_exactly_the_run_keys(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out))
        expected = {flag_of(f.name) for f in fields(RunConfig)} | {"--config", "--help"}
        assert listed == expected

    @pytest.mark.parametrize("command", COMMANDS)
    def test_coherent_check_is_not_a_mode(self, capsys, command):
        assert main([command, "--mode", "coherent-check"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: unknown mode 'coherent-check'\n"


def _key_value(name, value):
    spelling = st.sampled_from(sorted({name, flag_of(name)[2:], name.replace("_", "-")}))
    return st.tuples(spelling, value).map(" = ".join)


_FLOAT_KEYS = [f.name for f in fields(RunConfig) if isinstance(f.default, float)]
_GRID_KEYS = ["tau_grid", "tau_ev_grid"]
_GARBAGE = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e308", "-1e-300", "abc", ""])
_ANY_NUMBER = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr), _GARBAGE)
_VALID_LINE = st.one_of(
    _key_value("mode", st.sampled_from(["ideal", "kinetic"])),
    _key_value("n_p", st.integers(0, 40).map(str)),
    *(_key_value(name, st.floats(0.0, 500.0).map(repr)) for name in _FLOAT_KEYS),
)
_GRID_LINE = st.one_of(*(
    _key_value(name, st.sets(st.floats(0.0, 500.0), min_size=1, max_size=8).map(
        lambda xs: ",".join(map(repr, sorted(xs)))))
    for name in _GRID_KEYS
))
_BAD_LINE = st.one_of(
    _key_value("mode", st.sampled_from(["bogus", "", "Ideal"])),
    _key_value("n_p", st.sampled_from(["-1", "2.5", "1e9", "abc", "", "nan"])),
    *(_key_value(name, _ANY_NUMBER) for name in _FLOAT_KEYS),
    # empty, unsorted, repeated, non-finite, negative or garbage entries
    *(_key_value(name, st.lists(_ANY_NUMBER, max_size=8).map(",".join)) for name in _GRID_KEYS),
    st.sampled_from(["frequency = 10", "n_p2 = 3", "tau grid = 1", "= 5", "tau 28", "np == 3",
                     "tau = 1 = 2", "\x00", "mode"]),
)
# mostly valid files, so that examples also reach the engines, with up to two bad lines
_CONFIG_LINES = st.tuples(
    st.lists(_GRID_LINE, max_size=2),
    st.lists(_VALID_LINE, max_size=6),
    st.lists(_BAD_LINE, max_size=2),
).flatmap(lambda parts: st.permutations(sum(parts, [])))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestConfigFileFuzz:
    # out and n_steps are never drawn, so no example writes a file or runs a pulse

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(command=st.sampled_from(["pump", "sweep-tau", "decay", "enhance"]),
           lines=_CONFIG_LINES)
    def test_every_file_gives_a_documented_outcome(self, fuzz_dir, command, lines):
        cfg = fuzz_dir / "fuzz.cfg"
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_COMPUTE)
        stderr = err.getvalue()
        assert "Traceback" not in stderr
        for line in stderr.splitlines():
            assert line.startswith(("config error:", "computation failed:", "warning:")), line
        if code == EXIT_OK:
            assert out.getvalue().startswith(("n_p,", "tau,", "tau_ev,", "zo_ratio,"))


class TestOutputContract:
    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["pump", "--mode", "kinetic", "--np", "8", "--tau", "28"]
        assert main([*args, "--out", str(a)]) == EXIT_OK
        assert main([*args, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_io_failure_exit_code(self, tmp_path):
        code = main(
            ["pump", "--np", "2", "--out", str(tmp_path / "missing" / "out.csv")]
        )
        assert code == EXIT_IO

    def test_stdout_default(self, capsys):
        assert main(["pump", "--mode", "ideal", "--np", "2"]) == EXIT_OK
        captured = capsys.readouterr().out.splitlines()
        assert captured[0] == "n_p,so,signal,closed_form_so"
        assert len(data_rows(captured)) == 3

    @pytest.mark.parametrize(
        "args",
        [
            ["pump", "--mode", "ideal"],
            ["pump", "--mode", "kinetic"],
            ["enhance"],
            ["sweep-tau", "--tau-grid", "1,2,3"],
            ["decay", "--tau-ev-grid", "0,50,100"],
        ],
        ids=" ".join,
    )
    def test_unallocatable_pump_is_a_computation_failure(self, capsys, args):
        # 1e16 rows of 32 bytes exceed any address space, so numpy refuses the
        # array at once, whatever the memory overcommit policy
        assert main([*args, "--np", str(10**16)]) == EXIT_COMPUTE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("computation failed: Unable to allocate")
        assert captured.err.count("\n") == 1


def run_python(*args):
    """Run a fresh interpreter on the package under test."""
    env = dict(os.environ)
    src = str(Path(singletcool.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


class TestProcessStderr:
    # as a real process, warnings reach stderr; pytest captures them in process

    @pytest.mark.parametrize(
        "args",
        [
            ["pump", "--mode", "ideal"],
            ["pump", "--mode", "kinetic"],
            ["sweep-tau", "--tau-grid", "1,28"],
        ],
        ids=" ".join,
    )
    def test_engine_domain_error_is_a_computation_failure(self, args):
        # eps ~ 0.995 passes the eps check, but the first-order engines
        # leave the population simplex
        proc = run_python("-m", "singletcool.cli", *args, "--temperature", "0.0085")
        assert proc.returncode == EXIT_COMPUTE
        assert proc.stdout == ""
        assert proc.stderr.startswith("computation failed:")
        assert "Traceback" not in proc.stderr
        # the high-temperature warning is still reported, after the error
        assert "\nwarning: eps = 0.995 is outside" in proc.stderr

    @pytest.mark.parametrize("command", ["pump", "enhance"])
    def test_kinetic_rows_off_the_simplex_are_a_computation_failure(self, command):
        # eps ~ 0.995 and tau = 100 s: the last pumped state is on the simplex,
        # but rows 3 and 5 of the pump have a population of -0.06
        proc = run_python("-m", "singletcool.cli", command, "--mode", "kinetic",
                          "--temperature", "0.0085", "--tau", "100", "--np", "6")
        assert proc.returncode == EXIT_COMPUTE
        assert proc.stdout == ""
        assert proc.stderr.startswith("computation failed: negative population")

    def test_config_error_comes_before_any_warning(self):
        proc = run_python("-m", "singletcool.cli", "pump", "--temperature", "1e-25")
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("config error:")
        assert "warning" not in proc.stderr.lower()


class TestCoherentCheckStepError:
    # the fidelities are checked against a run at about half the steps

    def test_one_step_warns_but_keeps_rows_and_exit_code(self):
        proc = run_python("-m", "singletcool.cli", "coherent-check", "--n-steps", "1")
        assert proc.returncode == EXIT_OK
        fidelities = [ln for ln in proc.stdout.splitlines() if ln.startswith("fidelity_")]
        assert len(fidelities) == 2
        assert all(float(ln.split(",")[2]) < 0.1 for ln in fidelities)
        (warning,) = proc.stderr.splitlines()
        assert warning.startswith("warning: fidelity step error estimate")
        assert "--n-steps" in warning
        estimate = float(warning.split("estimate ")[1].split()[0])
        assert estimate > 0.1  # the converged fidelity is 0.708

    def test_default_steps_give_no_warning(self):
        proc = run_python("-m", "singletcool.cli", "coherent-check")
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        fidelities = [ln for ln in proc.stdout.splitlines() if ln.startswith("fidelity_")]
        assert all(float(ln.split(",")[2]) == pytest.approx(0.7081651662, rel=1e-9)
                   for ln in fidelities)


class TestEngineBoundary:
    def test_cli_reads_no_private_name_of_the_engines(self):
        # the CLI runs on the public engine API of kinetics and protocol alone
        tree = ast.parse(Path(singletcool.cli.__file__).read_text(encoding="utf-8"))
        public, private = set(), []
        engines = ("kinetics", "protocol")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in engines:
                (private.append if node.attr.startswith("_") else public.add)(node.attr)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in engines:
                private += [a.name for a in node.names if a.name.startswith("_")]
        assert {"ideal_engine", "kinetic_engine", "check_grid"} <= public
        assert private == []


class TestImportFootprint:
    def test_cli_imports_coherent_on_demand(self):
        probe = "import sys, singletcool.cli; print('singletcool.coherent' in sys.modules)"
        proc = run_python("-c", probe)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_coherent_check_output_does_not_depend_on_the_import(self):
        # imported on demand or beforehand, coherent-check writes the same report
        run = "import sys; from singletcool.cli import main; sys.exit(main(sys.argv[1:]))"
        args = ["coherent-check", "--n-steps", "600"]
        lazy = run_python("-c", run, *args)
        eager = run_python("-c", "import singletcool.coherent; " + run, *args)
        assert lazy.returncode == eager.returncode == EXIT_OK
        assert lazy.stderr == eager.stderr == ""
        assert lazy.stdout == eager.stdout
        rows = dict(ln.split(",", 1) for ln in lazy.stdout.splitlines())
        params = singletcool.SpinSystemParams()
        for kind in (protocol.Permutation.PI124, protocol.Permutation.PI142):
            _, fidelity = coherent.simulate_permutation(kind, params, n_steps=600)
            assert rows[f"fidelity_{kind.value}"] == f",{fidelity!r}"

    def test_every_command_runs_without_scipy(self):
        # the runtime needs only numpy: each command runs with scipy unimportable
        code = (
            "import sys; sys.modules['scipy'] = None; "
            "from singletcool.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        commands = [
            ["pump"],
            ["sweep-tau", "--tau-grid", "5,28,100"],
            ["decay", "--tau-ev-grid", "0,50,100,200,400"],
            ["enhance"],
            ["coherent-check", "--n-steps", "600"],
        ]
        for args in commands:
            proc = run_python("-c", code, *args)
            assert proc.returncode == EXIT_OK, (args, proc.stderr)
            assert proc.stderr == "", args
            if args[0] == "decay":
                assert proc.stdout.splitlines()[-1].endswith("status = ok")
