import ast
import contextlib
import io
import re
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singletcool
from cli_contract import CASES, Result, misses, run_as_process, run_in_process, run_python
from singletcool import coherent, kinetics, protocol
from singletcool.cli import (
    EXIT_COMPUTE,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    RunConfig,
    _build_parser,
    build_config,
    entry_point,
    main,
)

COMMANDS = ["pump", "sweep-tau", "decay", "enhance", "coherent-check"]
#: The contract's successful pump and enhance runs, in both modes, and all its sweep-tau and
#: decay runs, failures included, which run on Python floats alone.
POPULATION_CASES = [case for case in CASES
                    if re.match(r"(sweep-tau|decay) ", case.argv)
                    or case.code == EXIT_OK and re.match(r"(pump|enhance) ", case.argv)]


def run_cli(tmp_path, name, *args):
    """Run a command writing to a temp file; return (exit_code, lines)."""
    out = tmp_path / f"{name}.csv"
    code = main([*args, "--out", str(out)])
    lines = out.read_text().splitlines() if out.exists() else []
    return code, lines


def data_rows(lines):
    return [ln for ln in lines[1:] if not ln.startswith("#")]


@pytest.mark.parametrize("case", CASES, ids=[case.argv for case in CASES])
def test_contract_in_process(case):
    # tests/cli_contract.py: argv -> exit code, stderr lines, stdout
    assert misses(case, run_in_process) == []


@pytest.mark.parametrize("argv", [
    "coherent-check --n-steps 300",  # a warning line
    "pump --mode ideal --temperature 0.0085",  # an error line, then a warning
    "enhance --gamma -2.7126e7",  # a second process for the same output
])
def test_contract_as_a_process(argv):
    # CI runs every case this way (python3 tests/cli_contract.py)
    (case,) = [case for case in CASES if case.argv == argv]
    assert misses(case, run_as_process) == []


def run_entry_point(argv: str) -> Result:
    """The `singletcool` console script's run of ``argv``: entry_point exits with the code."""
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.object(sys, "argv", ["singletcool", *argv.split()]),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          pytest.raises(SystemExit) as info):
        entry_point()
    return Result(info.value.code, out.getvalue(), err.getvalue())


@pytest.mark.parametrize("argv", ["pump --mode ideal --np 2", "enhance --temp 300"])
def test_entry_point_exits_with_the_outcome_of_main(argv):
    # the console script's entry point, which `python -m singletcool.cli` never runs
    (case,) = [case for case in CASES if case.argv == argv]
    assert misses(case, run_entry_point) == []


class TestPumpCommand:
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
        rows = data_rows(lines)
        assert len(rows) == 201
        for k, row in enumerate(rows):
            # each row equals the deviation readout of its own pump, bit for bit
            delta = protocol._pump(k, *protocol.IDEAL_DECAY, 0.25 * eps)[-1]
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
        deltas = protocol._pump(30, *protocol.IDEAL_DECAY, 0.25 * eps)
        messages = []
        for delta in deltas:
            try:
                singletcool.PopulationVector([0.25 + d for d in delta])
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

    def test_huge_singlet_lifetime_runs(self, tmp_path, capsys):
        # TS/T1 ~ 1.4e11 calibrates in closed form like any other ratio; a slower
        # singlet decay lifts the enhancement from the reference 1.3501 toward the ideal 1.5
        code, lines = run_cli(tmp_path, "bigts", "pump", "--ts", "1e12")
        assert code == EXIT_OK
        assert len(data_rows(lines)) == 7
        code, lines = run_cli(tmp_path, "bigts-enhance", "enhance", "--ts", "1e12")
        assert code == EXIT_OK
        assert 1.350098140870527 < float(data_rows(lines)[0].split(",")[0]) < 1.5
        assert capsys.readouterr().err == ""


class TestDecayCommand:
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


class TestEnhanceCommand:
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

    @pytest.mark.parametrize(
        "args",
        [
            ["enhance", "--gamma", "-2.7126e7"],
            ["enhance", "--j", "-5.41e1"],
            ["pump", "--delta-ppm", "-5.7E-2"],
            ["pump", "--mode", "ideal", "--b0", "-1.645e1"],
            ["enhance", "--tau-prime", "-1.8e1"],
            ["pump", "--temperature", "-2.98e2"],
            ["sweep-tau", "--tau-grid", "-1e1"],
            ["pump", "--np", "-6e0"],
            ["coherent-check", "--n-steps", "-1e3"],
        ],
        ids=" ".join,
    )
    def test_negative_value_after_a_space_reads_as_after_equals(self, capsys, args):
        # argparse alone takes "-2.7126e7" for an unknown flag ("expected one argument")
        *head, flag, value = args
        runs = []
        for tail in ([flag, value], [f"{flag}={value}"]):
            code = main([*head, *tail])
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert "expected one argument" not in runs[0][2]

    def test_non_finite_value_in_config_file_rejected(self, tmp_path):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("t1 = nan\n")
        assert main(["pump", "--config", str(cfg)]) == EXIT_CONFIG

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

    @pytest.mark.parametrize("name", RunConfig._fields)
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
        expected = {flag_of(name) for name in RunConfig._fields} | {"--config", "--help"}
        assert listed == expected


def _key_value(name, value):
    spelling = st.sampled_from(sorted({name, flag_of(name)[2:], name.replace("_", "-")}))
    return st.tuples(spelling, value).map(" = ".join)


_FLOAT_KEYS = [name for name, default in RunConfig._field_defaults.items()
               if isinstance(default, float)]
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


class TestEngineLimits:
    @pytest.mark.parametrize("mode", ["ideal", "kinetic"])
    def test_eps_above_the_floor_gives_the_default_ratio(self, capsys, mode):
        # gamma = 6000 at 1e300 K puts eps ~ 7.5e-307 just above 2**-1018 ~ 3.6e-307
        ratios = []
        for extra in ([], ["--gamma", "6000", "--temperature", "1e300"]):
            assert main(["enhance", "--mode", mode, *extra]) == EXIT_OK
            captured = capsys.readouterr()
            assert captured.err == ""
            ratios.append(float(captured.out.splitlines()[1].split(",")[0]))
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-15, abs=0.0)


class TestOverflowingSpinFrequency:
    @pytest.mark.parametrize("flag", ["--j", "--delta-ppm", "--b0"])
    def test_named_before_any_step(self, capsys, monkeypatch, flag):
        # an infinite frequency is rejected by name, with no numpy warning after it
        def no_step(*args, **kwargs):
            raise AssertionError("a step was exponentiated")

        monkeypatch.setattr(coherent, "_step_exponentials", no_step)
        assert main(["coherent-check", flag, "1e308", "--n-steps", "10"]) == EXIT_COMPUTE
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("computation failed: non-finite frequency ")


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
    def test_population_runs_import_no_numpy_dataclasses_or_inspect(self):
        # each population run, in a fresh interpreter, loads none of these modules: every
        # exit-0 pump and enhance row, and every sweep-tau and decay row, its config errors,
        # a state off the simplex and an unallocatable pump included
        probe = (
            "import contextlib, io, sys\n"
            "from singletcool.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            "print(code, sorted({'numpy', 'dataclasses', 'inspect'} & set(sys.modules)))\n"
        )
        modes = {"--mode ideal" in case.argv for case in POPULATION_CASES}
        kinds = Counter((case.argv.split()[0], case.code) for case in POPULATION_CASES)
        assert modes == {True, False}
        assert kinds == {("pump", 0): 6, ("enhance", 0): 6, ("sweep-tau", 0): 3,
                         ("sweep-tau", 1): 8, ("sweep-tau", 2): 2, ("decay", 0): 2,
                         ("decay", 1): 4, ("decay", 2): 2}
        for case in POPULATION_CASES:
            proc = run_python("-c", probe, *case.argv.split())
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                0, f"{case.code} []\n", ""), case.argv

    @pytest.mark.parametrize("case", POPULATION_CASES,
                             ids=[case.argv for case in POPULATION_CASES])
    def test_population_runs_are_the_same_with_numpy_unimportable(self, case):
        code = ("import sys; sys.modules['numpy'] = None; "
                "from singletcool.cli import main; sys.exit(main(sys.argv[1:]))")
        blocked = run_python("-c", code, *case.argv.split())
        assert (blocked.returncode, blocked.stdout, blocked.stderr) == run_as_process(case.argv)

    def test_a_grid_of_16_points_loads_no_numpy(self):
        # sweep_tau, decay_curve and the fit of its curve, at the largest grid on floats
        probe = (
            "import sys\n"
            "from singletcool import SpinSystemParams, decay_curve, fit_monoexponential, sweep_tau\n"
            "grid, params = [10.0 * k for k in range(16)], SpinSystemParams()\n"
            "sweep = sweep_tau(6, grid, params)\n"
            "fit = fit_monoexponential(decay_curve(6, 28.0, grid, params))\n"
            "print(len(sweep.points), fit.ok, 'numpy' in sys.modules)\n"
        )
        proc = run_python("-c", probe)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "16 True False\n", "")

    def test_a_grid_of_17_points_runs_one_stacked_pump(self, monkeypatch):
        pump = mock.Mock(wraps=protocol._pump)
        fit = mock.Mock(wraps=kinetics._projected_fit)
        monkeypatch.setattr(protocol, "_pump", pump)
        monkeypatch.setattr(kinetics, "_projected_fit", fit)
        params = singletcool.SpinSystemParams()
        for n, pumps in ((16, 16), (17, 1)):
            grid = [10.0 * k for k in range(n)]
            pump.reset_mock()
            fit.reset_mock()
            kinetics.sweep_tau(6, grid, params)
            assert pump.call_count == pumps
            assert {np.shape(call.args[1]) for call in pump.call_args_list} == {
                () if n == 16 else (17,)}
            assert kinetics.fit_monoexponential(kinetics.decay_curve(6, 28.0, grid, params)).ok
            assert fit.called == (n == 17)

    def test_kinetics_and_a_kinetic_pump_import_no_numpy(self):
        probe = (
            "import sys\n"
            "from singletcool.core import SpinSystemParams\n"
            "from singletcool.kinetics import kinetic_engine\n"
            "print('numpy' in sys.modules)\n"
            "states = kinetic_engine(SpinSystemParams()).pump(40, 28.0)\n"
            "print(len(states), 'numpy' in sys.modules)\n"
        )
        proc = run_python("-c", probe)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n41 False\n", "")

    def test_every_public_name_resolves(self):
        # kinetics and the observables are imported on first access, a star import included
        probe = (
            "import singletcool\n"
            "run = singletcool.run_kinetic\n"
            "names = {}\n"
            "exec('from singletcool import *', names)\n"
            "eig = singletcool.core.SINGLET_ORDER.eigenvalues\n"
            "same = run is singletcool.kinetics.run_kinetic is names['run_kinetic']\n"
            "print(sorted(set(singletcool.__all__) - set(names)), type(eig).__name__,\n"
            "      eig.flags.writeable, same)\n"
        )
        proc = run_python("-c", probe)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[] ndarray False True\n", "")

    def test_kinetics_and_every_public_name_before_any_import(self):
        # dir lists the names not imported yet; reading `kinetics` imports it
        probe = (
            "import sys, singletcool\n"
            "print(sorted(set(singletcool.__all__) - set(dir(singletcool))),\n"
            "      'singletcool.kinetics' in sys.modules)\n"
            "print(singletcool.kinetics is sys.modules['singletcool.kinetics'])\n"
        )
        proc = run_python("-c", probe)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[] False\nTrue\n", "")

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

    def test_only_the_coherent_operators_are_dataclasses(self):
        # the value types and the run configuration are NamedTuples: a dataclass builds
        # its methods with exec at every interpreter start
        probe = (
            "import dataclasses, singletcool.cli, singletcool.coherent, singletcool.kinetics, sys\n"
            "for name in ('core', 'protocol', 'kinetics', 'coherent', 'cli'):\n"
            "    module = sys.modules['singletcool.' + name]\n"
            "    for value in vars(module).values():\n"
            "        if (isinstance(value, type) and value.__module__ == module.__name__\n"
            "                and dataclasses.is_dataclass(value)):\n"
            "            print(name, value.__name__)\n"
        )
        proc = run_python("-c", probe)
        want = "coherent SpinOperatorSet\ncoherent PulseShape\ncoherent Propagator\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")

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
