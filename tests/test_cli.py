import argparse
import codecs
import concurrent.futures
import csv
import math
import os
import re
import shlex
import stat
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import figwasp
from figwasp import benchmarks, cli
from figwasp.cli import (
    ConfigError,
    main,
    parse_config_file,
    parse_problem_token,
    resolve_problem,
)
from figwasp.core import derive_seed
from figwasp.constrained import ENGINEERING_PROBLEMS, LatticeStep, ValueSet, stepped_beam
from figwasp.stats import wilcoxon_signed_rank


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def write_result_file(path, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(["problem", "dimension", "best", "worst", "mean", "std"])
        writer.writerows(rows)


SMALL = ["--runs", "2", "--seed", "11", "--config"]


def small_config(tmp_path, iterations=20):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"schema = 1\niterations = {iterations}\n")
    return str(cfg)


def run_python(cwd, *args):
    """The output of ``python *args`` run in ``cwd`` on this checkout's figwasp; it must exit 0."""
    src = str(Path(figwasp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def planned(token):
    """The (id, dimension) pairs of a campaign of one problem token."""
    return cli.ExperimentConfig(problems=[parse_problem_token(token, None)]).problems


class TestProblemTokens:
    def test_scalable_with_dimension(self):
        assert parse_problem_token("F1@30", None) == ("F1", 30)

    def test_fixed_dimension_defaults(self):
        assert planned("F16") == [("F16", 2)]

    def test_engineering_dimension_implied(self):
        assert planned("pressure-vessel") == [("pressure-vessel", 4)]

    def test_unknown_id(self):
        with pytest.raises(ConfigError, match="unknown problem id"):
            planned("F99")

    def test_wrong_fixed_dimension(self):
        with pytest.raises(ConfigError, match="F14"):
            resolve_problem("F14", 30, cli.DEFAULT_PENALTY_COEFFICIENT)

    def test_scalable_needs_dimension(self):
        with pytest.raises(ConfigError, match="dim"):
            resolve_problem("F1", None, cli.DEFAULT_PENALTY_COEFFICIENT)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "# a campaign\nschema = 1\nproblems = F16, F1@30\nruns = 3\nseed = 5\n"
            "iterations = 10\neta_units = relative\n"
        )
        values = parse_config_file(cfg)
        assert values["problems"] == "F16, F1@30"
        assert values["runs"] == "3"

    def test_unknown_key_named(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("schema = 1\nbudget = 3\n")
        with pytest.raises(ConfigError, match="budget"):
            parse_config_file(cfg)

    def test_wrong_schema_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("schema = 2\n")
        with pytest.raises(ConfigError, match="schema"):
            parse_config_file(cfg)

    def test_duplicate_key_named_with_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("schema = 1\nruns = 2\nruns = 3\n")
        assert main(["run", "F16", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:3: duplicate config key 'runs'\n"

    def test_bad_cli_config_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("schema = 1\nnope = 1\n")
        code = main(["run", "F16", "--config", str(cfg)])
        assert code == 2
        assert "nope" in capsys.readouterr().err


# each `params.*` key of CONFIG_KEYS out of its range: `_config_from_args`
# names the key from the first word of the FwscParams message
PARAMS_OUT_OF_RANGE = {
    "trees": "0",
    "figs_per_tree": "0",
    "wasps_per_fig": "3",
    "eta0": "0",
    "wind_threshold": "2",
    "wind_fraction": "-1",
    "iterations": "0",
    "decay_scale": "0",
    "stagnation_window": "0",
}

# (argument kind, bad input, what the error line must start with)
BAD_INPUTS = [
    pytest.param("config", "schema = 1\nruns = abc\n", "error: runs: ", id="runs"),
    pytest.param("config", "schema = x\n", "error: schema: ", id="schema"),
    pytest.param("config", "schema = 1\nwasps_per_fig = 7\n", "error: wasps_per_fig: ", id="wasps_per_fig"),
    pytest.param("config", "schema = 1\niterations = -1\n", "error: iterations: ", id="iterations"),
    pytest.param("engineering", "schema = 1\niterations = 0\n", "error: iterations: ", id="engineering-iterations"),
    pytest.param("config", "schema = 1\neta0 = nan\n", "error: eta0: ", id="eta0-nan"),
    pytest.param("config", "schema = 1\neta0 = inf\n", "error: eta0: ", id="eta0-inf"),
    pytest.param(
        "config",
        "schema = 1\neta0 = 1e308\neta_units = absolute\n",
        "error: eta0: must be positive with eta0 * e finite",
        id="eta0-radius-overflows",
    ),
    pytest.param(
        "config", "schema = 1\npenalty_coefficient = nan\n", "error: penalty_coefficient: ", id="penalty_coefficient"
    ),
    pytest.param(
        "config", "schema = 1\npenalty_coefficient = inf\n", "error: penalty_coefficient: ", id="penalty-inf"
    ),
    pytest.param("config", "schema = 1\ntrace = tru\n", "error: trace: invalid value 'tru'", id="trace"),
    pytest.param("stats", "nan", "error: ", id="mean"),
    pytest.param("problems", "F16 F16", "error: problems: F16@2 is listed twice", id="problem-twice"),
    pytest.param("problems", "F16 F16@2", "error: problems: F16@2 is listed twice", id="problem-twice-dim"),
    pytest.param("problems", "F1@30 F1 --dim 30", "error: problems: F1@30 is listed twice", id="problem-twice-flag"),
    pytest.param(
        "problems",
        "pressure-vessel pressure-vessel@4",
        "error: problems: pressure-vessel@4 is listed twice",
        id="design-twice",
    ),
    pytest.param(
        "problems", "pressure-vessel@5", "error: dim: pressure-vessel allows dimensions [4], not 5", id="design-dim"
    ),
    *(
        pytest.param("config", f"schema = 1\n{key} = {value}\n", f"error: {key}: ", id=f"{key}-out-of-range")
        for key, value in PARAMS_OUT_OF_RANGE.items()
    ),
]


def test_every_params_key_has_an_out_of_range_case():
    params_keys = {key for key, (target, _) in cli.CONFIG_KEYS.items() if str(target).startswith("params.")}
    assert set(PARAMS_OUT_OF_RANGE) == params_keys


@pytest.mark.parametrize("kind, text, prefix", BAD_INPUTS)
def test_bad_input_names_its_key_and_exits_2(tmp_path, capsys, kind, text, prefix):
    if kind in ("config", "engineering"):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        command = ["run", "F16"] if kind == "config" else ["engineering", "welded-beam"]
        argv = [*command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    elif kind == "problems":
        argv = ["run", *text.split(), "--runs", "1", "--out", str(tmp_path / "o")]
    else:
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_result_file(a, [["F1", "30", "0", "0", text, "0"], ["F9", "30", "0", "0", "1.0", "0"]])
        write_result_file(b, [["F1", "30", "0", "0", "1.0", "0"], ["F9", "30", "0", "0", "2.0", "0"]])
        argv = ["stats", str(a), str(b), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == 1
    if kind == "stats":
        assert str(a) in err and "F1@30" in err and "mean" in err
    assert "max_iterations" not in err and "num_trees" not in err
    assert not (tmp_path / "o").exists()


# (command line, quoted as a shell quotes it, what its one error line starts
# with); {tmp} is the test's directory, which holds a.csv and b.csv (the same
# two problem rows), one.csv (one row), other.csv (other rows), twice.csv (a
# row twice), ok.cfg, latin1.cfg (not UTF-8) and plain, a regular file. A file
# error that escaped main would end in a traceback and exit code 1.
ONE_EXIT = [
    pytest.param("stats {tmp}/a.csv {tmp}/missing.csv", "error: {tmp}/missing.csv: ", id="stats-missing"),
    pytest.param("stats {tmp}/a.csv d={tmp}", "error: {tmp}: ", id="stats-directory"),
    pytest.param("run F16 --config {tmp}/missing.cfg", "error: {tmp}/missing.cfg: ", id="config-missing"),
    pytest.param("run F16 --config {tmp}", "error: {tmp}: ", id="config-directory"),
    pytest.param("run F16 --config {tmp}/latin1.cfg", "error: {tmp}/latin1.cfg: not UTF-8", id="config-not-utf8"),
    pytest.param("run F16 --runs 1 --config {tmp}/ok.cfg --out {tmp}/plain/o", "error: {tmp}/plain/o: ", id="out"),
    pytest.param("stats {tmp}/a.csv {tmp}/b.csv --out {tmp}/plain/o", "error: {tmp}/plain/o: ", id="stats-out"),
    pytest.param(
        "run F16 --runs 1 --config {tmp}/ok.cfg --out {tmp}/plain",
        "error: {tmp}/plain: not a directory\n",
        id="out-file",
    ),
    pytest.param(
        "stats {tmp}/a.csv {tmp}/b.csv --out {tmp}/plain", "error: {tmp}/plain: not a directory\n", id="stats-out-file"
    ),
    # an empty output path is no directory, not the working one
    pytest.param("run F16 --runs 1 --config {tmp}/ok.cfg --out ''", "error: out_dir: must not be empty\n", id="out-empty"),
    pytest.param(
        "engineering welded-beam --runs 1 --config {tmp}/ok.cfg --out ''",
        "error: out_dir: must not be empty\n",
        id="engineering-out-empty",
    ),
    pytest.param("stats {tmp}/a.csv {tmp}/b.csv --out ''", "error: out: must not be empty\n", id="stats-out-empty"),
    pytest.param("stats x={tmp}/a.csv x={tmp}/b.csv", "error: stats: algorithm names must be unique", id="names"),
    pytest.param(
        "stats ={tmp}/missing.csv {tmp}/b.csv",
        "error: stats: algorithm names must not be empty (use name=path)\n",
        id="empty-name",
    ),
    pytest.param(
        "stats ' ={tmp}/missing.csv' {tmp}/b.csv",
        "error: stats: algorithm names must not be empty (use name=path)\n",
        id="blank-name",
    ),
    pytest.param("stats {tmp}/a.csv", "error: stats: need at least two result files", id="one-file"),
    pytest.param("stats {tmp}/a.csv {tmp}/b.csv --baseline c", "error: stats: baseline 'c' is not", id="baseline"),
    pytest.param("stats {tmp}/a.csv {tmp}/other.csv", "error: stats: other rows do not match a", id="rows"),
    pytest.param("stats x={tmp}/one.csv y={tmp}/one.csv", "error: stats: need at least two problem rows", id="one-row"),
    pytest.param("stats {tmp}/twice.csv {tmp}/a.csv", "error: {tmp}/twice.csv: F1@30: duplicate", id="twice"),
]


@pytest.mark.parametrize("command, prefix", ONE_EXIT)
def test_unusable_file_or_stats_input_exits_2_with_one_line(tmp_path, monkeypatch, capsys, command, prefix):
    rows = [["F1", "30", "0", "0", "1.0", "0"], ["F9", "30", "0", "0", "2.0", "0"]]
    other = [rows[0], ["F11", "30", "0", "0", "3.0", "0"]]
    for name, content in (("a", rows), ("b", rows[::-1]), ("one", rows[:1]), ("other", other), ("twice", rows + rows)):
        write_result_file(tmp_path / f"{name}.csv", content)
    (tmp_path / "ok.cfg").write_text("schema = 1\niterations = 1\n")
    (tmp_path / "latin1.cfg").write_bytes("schema = 1\n# caf\xe9\n".encode("latin-1"))
    (tmp_path / "plain").write_text("")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = shlex.split(command.format(tmp=tmp_path))
    assert main(argv if "--out" in argv else argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix.format(tmp=tmp_path)), err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "o").exists() and not any(work.iterdir())


@pytest.mark.parametrize("out", ["plain", "plain/o"])
@pytest.mark.parametrize("command", [["run", "F16"], ["engineering", "pressure-vessel"]])
def test_bad_out_fails_before_any_run(tmp_path, monkeypatch, capsys, command, out):
    def run_many(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_many", run_many)
    (tmp_path / "plain").write_text("")
    assert main([*command, "--runs", "1", "--out", str(tmp_path / out)]) == 2
    reason = "not a directory" if out == "plain" else "Not a directory"
    assert capsys.readouterr().err == f"error: {tmp_path / out}: {reason}\n"
    assert (tmp_path / "plain").read_text() == ""


@pytest.mark.parametrize("command", [["run", "F16"], ["engineering", "pressure-vessel"]])
def test_bad_worker_count_fails_before_out_is_made(tmp_path, monkeypatch, capsys, command):
    for raw, reason in (("two", "must be an integer"), ("0", "must be at least 1"), ("-4", "must be at least 1")):
        monkeypatch.setenv(cli.WORKERS_ENV, raw)
        assert main([*command, "--runs", "1", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: FIGWASP_WORKERS {reason}, got '{raw}'\n"
        assert not (tmp_path / "o").exists()


def test_config_with_a_leading_bom_is_read(tmp_path):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(codecs.BOM_UTF8 + b"schema = 1\nruns = 3\n")
    assert parse_config_file(cfg) == {"schema": "1", "runs": "3"}


def test_stats_reads_a_summary_with_a_leading_bom(tmp_path):
    rows = [["F1", "30", "0", "0", "1.0", "0"], ["F9", "30", "0", "0", "2.0", "0"]]
    write_result_file(tmp_path / "a.csv", rows)
    write_result_file(tmp_path / "b.csv", rows[::-1])
    (tmp_path / "bom.csv").write_bytes(codecs.BOM_UTF8 + (tmp_path / "a.csv").read_bytes())
    for name, out in (("a", "plain"), ("bom", "with-bom")):
        assert main(["stats", f"a={tmp_path / name}.csv", f"b={tmp_path}/b.csv", "--out", str(tmp_path / out)]) == 0
    for name in ("friedman.csv", "wilcoxon.csv"):
        assert (tmp_path / "with-bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_eta0_that_overflows_in_problem_units_fails_before_any_run(tmp_path, monkeypatch, capsys):
    # eta_units = relative scales eta0 by the box half-width, 100 for F1
    def run_many(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_many", run_many)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("schema = 1\neta0 = 1e307\n")
    assert main(["run", "F1@30", "--runs", "1", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "error: eta0: 1e+307 relative to F1 Sphere must be positive with eta0 * e finite, not inf\n"
    assert not (tmp_path / "o").exists()


def config_of(tmp_path, text, problems=("F16",)):
    cfg = tmp_path / "table.cfg"
    cfg.write_text(text)
    args = argparse.Namespace(config=str(cfg), runs=None, seed=None, out=None, trace=False, dim=None)
    return cli._config_from_args(args, list(problems))


class TestConfigTable:
    def test_every_target_is_a_field(self):
        config_fields = {f.name for f in fields(cli.ExperimentConfig)}
        param_fields = {f.name for f in fields(cli.FwscParams)}
        for key, (target, _) in cli.CONFIG_KEYS.items():
            if target is None:
                assert key == "schema"
            elif target.startswith("params."):
                assert target.removeprefix("params.") in param_fields, key
            else:
                assert target in config_fields and target != "params", key

    def test_every_param_has_a_key(self):
        targets = {target for target, _ in cli.CONFIG_KEYS.values()}
        assert {f"params.{f.name}" for f in fields(cli.FwscParams)} <= targets

    def test_schema_only_config_is_the_dataclass_defaults(self, tmp_path):
        assert config_of(tmp_path, "schema = 1\n") == cli.ExperimentConfig(problems=[("F16", 2)])

    def test_empty_values_keep_the_defaults(self, tmp_path):
        text = "".join(f"{key} =\n" for key in cli.CONFIG_KEYS if key not in ("schema", "problems"))
        assert config_of(tmp_path, text) == cli.ExperimentConfig(problems=[("F16", 2)])

    @pytest.mark.parametrize("text, value", [("TRUE", True), ("yes", True), ("1", True), ("Off", False), ("0", False)])
    def test_trace_words(self, tmp_path, text, value):
        assert config_of(tmp_path, f"trace = {text}\n").trace is value


@pytest.mark.parametrize(
    "field, value, noun",
    [
        ("runs", 2.5, "an integer"),
        ("runs", True, "an integer"),
        ("master_seed", 1.5, "an integer"),
        ("penalty_coefficient", "1", "a number"),
        ("trace", "no", "True or False"),
        ("out_dir", 5, "a path"),
        ("params", {"eta0": 1.0}, "an FwscParams"),
    ],
)
def test_library_config_of_the_wrong_type_names_its_field(field, value, noun):
    # runs=2.5 and penalty_coefficient="1" failed with a TypeError naming no field,
    # runs=True ran one run, master_seed=1.5 ran seed 1 and trace="no" wrote traces;
    # out_dir=5 failed with a TypeError and params={...} with an AttributeError
    with pytest.raises(ConfigError, match=f"^{field}: must be {noun}, not {re.escape(repr(value))}$"):
        cli.ExperimentConfig(problems=[("F16", None)], **{field: value})


def test_library_config_with_an_empty_out_dir_names_it():
    with pytest.raises(ConfigError, match="^out_dir: must not be empty$"):
        cli.ExperimentConfig(problems=[("F16", None)], out_dir="")


@pytest.mark.parametrize(
    "problems, message",
    [
        (["F16"], "problems: each must be an (id, dimension) pair, not 'F16'"),
        ([(["F1"], 30)], "problems: each must be an (id, dimension) pair, not (['F1'], 30)"),
        ([("F1", 30.0)], "dim: F1 needs an integer dimension, not 30.0"),
        ([("F16", 2.0)], "dim: F16 needs an integer dimension, not 2.0"),
    ],
)
def test_library_problems_of_the_wrong_shape_name_their_field(problems, message):
    # these failed inside Python or numpy: too many values to unpack,
    # unhashable type, or numpy's "expected a sequence of integers"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cli.ExperimentConfig(problems=problems)


class TestRunCommand:
    def test_summary_and_traces(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["run", "F16", "F1@30", *SMALL, small_config(tmp_path), "--out", str(out), "--trace"]
        )
        assert code == 0
        rows = read_csv(out / "summary.csv")
        assert [r["problem"] for r in rows] == ["F16", "F1"]
        by_problem = {r["problem"]: r for r in rows}
        assert float(by_problem["F1"]["best"]) >= 0.0  # Sphere is nonnegative
        for row in rows:
            assert float(row["best"]) <= float(row["mean"]) <= float(row["worst"])
            assert float(row["std"]) >= 0.0
        traces = sorted(out.glob("trace_*.csv"))
        assert len(traces) == 4  # 2 problems x 2 runs

    def test_summary_recomputes_from_traces(self, tmp_path):
        out = tmp_path / "out"
        main(["run", "F16", *SMALL, small_config(tmp_path), "--out", str(out), "--trace"])
        finals = []
        for trace in sorted(out.glob("trace_F16_*.csv")):
            rows = read_csv(trace)
            assert [int(r["iteration"]) for r in rows] == list(range(1, len(rows) + 1))
            best_so_far = [float(r["best_so_far"]) for r in rows]
            assert all(a >= b for a, b in zip(best_so_far, best_so_far[1:]))
            finals.append(best_so_far[-1])
        summary = read_csv(out / "summary.csv")[0]
        assert float(summary["best"]) == pytest.approx(min(finals), rel=1e-6)
        assert float(summary["worst"]) == pytest.approx(max(finals), rel=1e-6)
        assert float(summary["mean"]) == pytest.approx(np.mean(finals), rel=1e-6)

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o007, 0o660)], ids=["umask-022", "umask-007"])
    def test_output_files_follow_the_umask(self, tmp_path, umask, mode):
        out = tmp_path / "out"
        previous = os.umask(umask)
        try:
            code = main(["run", "F16", *SMALL, small_config(tmp_path, iterations=2), "--out", str(out), "--trace"])
        finally:
            os.umask(previous)
        assert code == 0
        for path in (out / "summary.csv", next(out.glob("trace_F16_*.csv"))):
            assert stat.S_IMODE(path.stat().st_mode) == mode, path.name

    def test_files_are_written_without_touching_the_umask(self, tmp_path, monkeypatch):
        def umask(mask):
            raise AssertionError("the process umask changed")

        monkeypatch.setattr(os, "umask", umask)
        out = tmp_path / "out"
        assert main(["run", "F16", *SMALL, small_config(tmp_path, iterations=2), "--out", str(out), "--trace"]) == 0
        assert len(read_csv(out / "summary.csv")) == 1
        assert len(list(out.glob("trace_F16_*.csv"))) == 2
        assert not list(out.glob(".tmp-*"))

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["run", "F16", *SMALL, small_config(tmp_path), "--trace"]
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        for name in ["summary.csv"] + [p.name for p in out1.glob("trace_*.csv")]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_library_config_matches_the_command_line(self, tmp_path):
        # a library campaign may leave a one-dimension problem's dimension None
        command = ["run", "F16", "pressure-vessel", *SMALL, small_config(tmp_path, iterations=5), "--trace"]
        assert main(command + ["--out", str(tmp_path / "cli")]) == 0
        config = cli.ExperimentConfig(
            problems=[("F16", None), ("pressure-vessel", None)],
            runs=2,
            master_seed=11,
            out_dir=str(tmp_path / "library"),
            trace=True,
            params=cli.FwscParams(max_iterations=5),
        )
        assert cli.cmd_run(config) == 0
        summary = (tmp_path / "library" / "summary.csv").read_bytes()
        assert summary == (tmp_path / "cli" / "summary.csv").read_bytes()
        assert [(r["problem"], r["dimension"]) for r in read_csv(tmp_path / "cli" / "summary.csv")] == [
            ("F16", "2"),
            ("pressure-vessel", "4"),
        ]
        # trace files are named by their run seeds
        seeds = [(pid, derive_seed(11, pid, dim, i)) for pid, dim in (("F16", 2), ("pressure-vessel", 4)) for i in (0, 1)]
        expected = sorted(f"trace_{pid}_{seed}.csv" for pid, seed in seeds)
        for out in ("cli", "library"):
            assert sorted(p.name for p in (tmp_path / out).glob("trace_*.csv")) == expected

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        args = ["run", "F16", "F1@30", *SMALL, small_config(tmp_path), "--trace"]
        monkeypatch.setenv("FIGWASP_WORKERS", "1")
        main(args + ["--out", str(out1)])
        monkeypatch.setenv("FIGWASP_WORKERS", "3")
        main(args + ["--out", str(out2)])
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_drawing_ahead_writes_the_bytes_pool_workers_write(self, tmp_path, monkeypatch):
        # in process, a large run draws ahead in a background thread on a
        # machine with a spare CPU; in pool workers it draws in turn
        from figwasp import engine

        cases = [
            ("F1@1000", "iterations = 5\n", [1 + 5, 1 + 5]),  # a group of 1 a run
            # a group of 2 at one worker, whose runs go one at a time, each drawing
            # ahead alone: the first leaves after generation 2, the second runs all 20
            ("F1@500", "iterations = 20\nstagnation_window = 1\n", [1 + 2, 1 + 20]),
        ]
        aheads, real = [], engine._Draws
        monkeypatch.setattr(
            engine, "_Draws", lambda params, rngs, buffers, ahead: aheads.append(ahead) or real(params, rngs, buffers, ahead)
        )
        for token, settings, lengths in cases:
            aheads.clear()
            work = tmp_path / token
            work.mkdir()
            (work / "exp.cfg").write_text("schema = 1\n" + settings)
            args = ["run", token, *SMALL, str(work / "exp.cfg"), "--trace"]
            for workers in ("1", "2"):
                monkeypatch.setenv(cli.WORKERS_ENV, workers)
                assert main(args + ["--out", str(work / workers)]) == 0
            names = sorted(p.name for p in (work / "1").iterdir())
            assert len(names) == 3 and names == sorted(p.name for p in (work / "2").iterdir())
            for name in names:
                assert (work / "1" / name).read_bytes() == (work / "2" / name).read_bytes()
            # a header line, then a line a generation
            assert sorted(len(p.read_text().splitlines()) for p in (work / "1").glob("trace_*.csv")) == lengths
            assert aheads.count(True) == (2 if len(os.sched_getaffinity(0)) > 1 else 0)

    def test_dim_applies_only_to_scalable_problems(self, tmp_path):
        out = tmp_path / "out"
        tokens = [f"F{i}" for i in range(1, 24)]
        args = ["run", "--dim", "30", *tokens, "--runs", "1", "--config", small_config(tmp_path, iterations=2)]
        assert main(args + ["--out", str(out)]) == 0
        rows = read_csv(out / "summary.csv")
        assert [r["problem"] for r in rows] == tokens
        for row in rows:
            dims = benchmarks.SPECS[row["problem"]].dimensions
            assert int(row["dimension"]) == (30 if len(dims) > 1 else dims[0])
        assert [r["dimension"] for r in rows[13:]] == ["2", "4", "2", "2", "2", "3", "6", "4", "4", "4"]

    def test_explicit_fixed_dimension_still_checked(self, tmp_path, capsys):
        assert main(["run", "--dim", "30", "F16@30", "--runs", "1", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: dim: F16 allows dimensions [2], not 30")

    def test_no_partial_summary_on_missing_dim(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "F1", "--runs", "1", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "dim" in capsys.readouterr().err


class SerialPool:
    """A stand-in for `ProcessPoolExecutor` that maps in the calling process."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


class TestGrouping:
    PARAMS = cli.FwscParams()  # T*A*W = 96 wasps

    @pytest.mark.parametrize(
        "runs,total,workers,dim,width",
        [
            (4, 16, 2, 30, 4),  # every run of a problem in one group
            (30, 30, 4, 4, 8),  # ceil(30 / 4): four groups keep four workers busy
            (30, 30, 1, 30, 30),
            (100, 100, 1, 30, 45),  # 45 * 96 * 30 floats fit 2^17, 46 do not
            (1000, 1000, 1, 2, 682),
            (30, 30, 1, 1000, 1),  # one d=1000 wasp block alone is over the cap
            (1, 4, 8, 30, 1),
        ],
    )
    def test_group_width(self, monkeypatch, runs, total, workers, dim, width):
        # the campaign's tasks, each run in process and answered with placeholders
        tasks = []
        monkeypatch.setattr(cli, "_run_group", lambda task: tasks.append(task) or [None] * len(task[2]))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        problems = [(pid, dim) for pid, spec in benchmarks.SPECS.items() if dim in spec.dimensions][: total // runs]
        cli.execute_campaign(cli.ExperimentConfig(problems=problems, runs=runs, params=self.PARAMS), workers)
        per_problem = [min(width, runs - first) for first in range(0, runs, width)]
        assert [len(seeds) for _, _, seeds, *_ in tasks] == per_problem * len(problems)

    def test_campaign_runs_groups_of_one_problem(self, tmp_path, monkeypatch):
        calls = []
        engine_run_many = cli.run_many

        def run_many(problem, params, seeds):
            calls.append((problem.name, len(seeds)))
            return engine_run_many(problem, params, seeds)

        monkeypatch.setenv(cli.WORKERS_ENV, "1")
        monkeypatch.setattr(cli, "run_many", run_many)
        args = ["run", "F16", "F1@100", "--runs", "3", "--seed", "5", "--config", small_config(tmp_path, iterations=2)]
        assert main(args + ["--out", str(tmp_path / "out")]) == 0
        assert [n for _, n in calls] == [3, 3]
        assert len({name for name, _ in calls}) == 2

    def test_each_task_resolves_its_problem_once(self, monkeypatch):
        # the config resolved every problem already; only the tasks rebuild theirs
        config = cli.ExperimentConfig(
            problems=[("F16", None), ("F1", 1000)], runs=3, params=cli.FwscParams(max_iterations=1)
        )
        calls = {"resolve_problem": 0, "task": 0}
        resolve, run_group = cli.resolve_problem, cli._run_group

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)

            return call

        monkeypatch.setattr(cli, "resolve_problem", counted("resolve_problem", resolve))
        monkeypatch.setattr(cli, "_run_group", counted("task", run_group))
        grouped = cli.execute_campaign(config, 1)
        # F16 in one group of 3; a d=1000 problem runs one run a task
        assert calls == {"resolve_problem": 4, "task": 4}
        assert [len(runs) for runs in grouped.values()] == [3, 3]

    def test_one_group_builds_no_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-group campaign built a process pool")

        monkeypatch.setenv(cli.WORKERS_ENV, "4")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        args = ["run", "F16", "--runs", "1", "--seed", "5", "--config", small_config(tmp_path, iterations=2)]
        assert main(args + ["--out", str(tmp_path / "out")]) == 0
        assert len(read_csv(tmp_path / "out" / "summary.csv")) == 1

    def test_pool_capped_at_group_count(self, tmp_path, monkeypatch):
        pools = []
        monkeypatch.setenv(cli.WORKERS_ENV, "4")
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", lambda max_workers: pools.append(max_workers) or SerialPool()
        )
        args = ["run", "F16", "F1@30", "--runs", "1", "--seed", "5", "--config", small_config(tmp_path, iterations=2)]
        assert main(args + ["--out", str(tmp_path / "out")]) == 0
        assert pools == [2]
        assert len(read_csv(tmp_path / "out" / "summary.csv")) == 2


class TestEngineeringCommand:
    def test_report_and_lattice(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["engineering", "stepped-beam", *SMALL, small_config(tmp_path, iterations=10), "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "objective =" in text and "max constraint violation" in text
        row = read_csv(out / "engineering_stepped-beam.csv")[0]
        problem = stepped_beam()
        for name, kind in zip(problem.variable_names, problem.variable_kinds):
            value = float(row[name])
            if isinstance(kind, LatticeStep):
                assert value / kind.step == pytest.approx(round(value / kind.step), abs=1e-9)
            elif isinstance(kind, ValueSet):
                assert min(abs(value - v) for v in kind.values) < 1e-9

    @pytest.mark.parametrize("pid", ["pressure-vessel", "stepped-beam"])
    def test_trace_files_are_those_of_run(self, tmp_path, pid):
        # engineering and run share one campaign path, traces included
        flags = [*SMALL, small_config(tmp_path, iterations=10), "--trace"]
        assert main(["engineering", pid, *flags, "--out", str(tmp_path / "eng")]) == 0
        assert main(["run", pid, *flags, "--out", str(tmp_path / "run")]) == 0
        traces = sorted(p.name for p in (tmp_path / "run").glob("trace_*.csv"))
        assert len(traces) == 2
        assert sorted(p.name for p in (tmp_path / "eng").glob("trace_*.csv")) == traces
        for name in traces:
            assert (tmp_path / "eng" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()

    def test_a_tie_goes_to_the_lowest_run_index(self, tmp_path, monkeypatch):
        # every run finds the first run's design, so the report names the first run's seed
        engine_run_many = cli.run_many

        def run_many(problem, params, seeds):
            first = engine_run_many(problem, params, seeds[:1])[0]
            return [replace(first, seed=seed) for seed in seeds]

        monkeypatch.setenv(cli.WORKERS_ENV, "1")
        monkeypatch.setattr(cli, "run_many", run_many)
        out = tmp_path / "out"
        flags = ["--runs", "3", "--seed", "11", "--config", small_config(tmp_path, iterations=3), "--out", str(out)]
        assert main(["engineering", "pressure-vessel", *flags]) == 0
        seed = read_csv(out / "engineering_pressure-vessel.csv")[0]["seed"]
        assert seed == str(derive_seed(11, "pressure-vessel", 4, 0))

    def test_unknown_problem_exits_nonzero(self, tmp_path, capsys):
        assert main(["engineering", "gear-train", "--runs", "1"]) == 2

    def test_dim_is_a_run_flag_only(self, tmp_path, capsys):
        # a design's dimension is fixed, so engineering takes no --dim
        with pytest.raises(SystemExit) as exc:
            main(["engineering", "welded-beam", "--dim", "4", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        # argparse's own form: its usage line, then its error line, not the one `error: ` line
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert out == "" and lines[0].startswith("usage: figwasp ")
        assert lines[-1] == "figwasp: error: unrecognized arguments: --dim 4"
        assert not (tmp_path / "o").exists()
        for command, listed in (("engineering", False), ("run", True)):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert ("--dim" in capsys.readouterr().out) == listed

    @pytest.mark.parametrize("pid", ["F1", "F16"])
    def test_benchmark_id_is_not_a_design(self, pid, capsys):
        assert main(["engineering", pid, "--runs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: problem: '{pid}' is not one of ")
        assert all(design in err for design in ("pressure-vessel", "stepped-beam", "welded-beam"))

    def test_all_non_finite_runs_report_no_design(self, tmp_path, monkeypatch, capsys):
        # every evaluation NaN: each run's position is just its first tree
        resolve = cli.resolve_problem
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
        monkeypatch.setattr(
            cli, "resolve_problem", lambda *a: replace(resolve(*a), objective=lambda x: np.full(len(x), math.nan))
        )
        out = tmp_path / "out"
        code = main(["engineering", "welded-beam", *SMALL, small_config(tmp_path, iterations=3), "--out", str(out)])
        assert code == 2
        assert "error: welded-beam: every evaluation was non-finite" in capsys.readouterr().err
        assert not (out / "engineering_welded-beam.csv").exists()

    def test_non_finite_run_is_skipped(self, tmp_path, monkeypatch):
        # the first run sees only NaN, the second the real objective
        engine_run_many = cli.run_many
        first, second = (derive_seed(11, "welded-beam", 4, i) for i in (0, 1))
        seen = []

        def run_many(problem, params, seeds):
            seen.extend(seeds)
            results = []
            for seed in seeds:
                if seed == first:
                    # a non-finite run's position is arbitrary; here it is the
                    # second run's design, which it would win a tie with
                    nan = replace(problem, objective=lambda x: np.full(len(x), math.nan))
                    design = engine_run_many(problem, params, [second])[0].best_position
                    results.append(replace(engine_run_many(nan, params, [seed])[0], best_position=design))
                else:
                    results.append(engine_run_many(problem, params, [seed])[0])
            return results

        monkeypatch.setenv(cli.WORKERS_ENV, "1")
        monkeypatch.setattr(cli, "run_many", run_many)
        out = tmp_path / "out"
        code = main(["engineering", "welded-beam", *SMALL, small_config(tmp_path, iterations=3), "--out", str(out)])
        assert code == 0
        assert sorted(seen) == sorted([first, second])
        assert read_csv(out / "engineering_welded-beam.csv")[0]["seed"] == str(second)


class TestStatsCommand:
    def rows(self, means):
        return [
            ["F1", "30", "0", "0", f"{means[0]:.6E}", "0"],
            ["F9", "30", "0", "0", f"{means[1]:.6E}", "0"],
            ["F11", "30", "0", "0", f"{means[2]:.6E}", "0"],
            ["F16", "2", "0", "0", f"{means[3]:.6E}", "0"],
        ]

    def test_identical_files_flagged(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_result_file(a, self.rows([1, 2, 3, 4]))
        write_result_file(b, self.rows([1, 2, 3, 4]))
        out = tmp_path / "out"
        assert main(["stats", f"x={a}", f"y={b}", "--out", str(out)]) == 0
        wil = read_csv(out / "wilcoxon.csv")
        assert wil[0]["winner"] == "no information"
        fri = read_csv(out / "friedman.csv")
        assert fri[0]["x"] == fri[0]["y"]  # equal mean ranks

    def test_cli_path_matches_library_fixture(self, tmp_path):
        # same fixture as the unit test: differences (+1, -2, +3, -4, +5)
        base = np.array([10.0, 10.0, 10.0, 10.0, 10.0])
        other = base + np.array([1.0, -2.0, 3.0, -4.0, 5.0])
        a, b = tmp_path / "other.csv", tmp_path / "base.csv"
        keys = [("F1", "30"), ("F9", "30"), ("F11", "30"), ("F16", "2"), ("F21", "4")]
        write_result_file(a, [[p, d, "0", "0", f"{v:.6E}", "0"] for (p, d), v in zip(keys, other)])
        write_result_file(b, [[p, d, "0", "0", f"{v:.6E}", "0"] for (p, d), v in zip(keys, base)])
        out = tmp_path / "out"
        assert main(["stats", f"base={b}", f"other={a}", "--out", str(out)]) == 0
        row = read_csv(out / "wilcoxon.csv")[0]
        expected = wilcoxon_signed_rank(other, base)
        assert float(row["t_plus"]) == expected.t_plus
        assert float(row["t_minus"]) == expected.t_minus
        assert float(row["p_value"]) == pytest.approx(expected.p_value, rel=1e-6)
        assert row["winner"].startswith("base")  # T+ favors the baseline

    def test_fourteen_algorithms_ranking_row(self, tmp_path):
        rng = np.random.default_rng(0)
        paths = []
        for i in range(14):
            path = tmp_path / f"alg{i:02d}.csv"
            write_result_file(path, self.rows(rng.uniform(size=4)))
            paths.append(f"alg{i:02d}={path}")
        out = tmp_path / "out"
        assert main(["stats", *paths, "--out", str(out)]) == 0
        fri = read_csv(out / "friedman.csv")
        ranking = [v for k, v in fri[1].items() if k != "metric"]
        assert len(ranking) == 14
        assert fri[1]["metric"] == "ranking"
        assert set(map(int, ranking)) <= set(range(1, 15))

    def test_mismatched_rows_listed(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_result_file(a, self.rows([1, 2, 3, 4]))
        write_result_file(b, self.rows([1, 2, 3, 4])[:-1] + [["F21", "4", "0", "0", "1.0", "0"]])
        assert main(["stats", f"x={a}", f"y={b}", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "F16" in err and "F21" in err

    def test_single_problem_row_rejected(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_result_file(a, self.rows([1, 2, 3, 4])[:1])
        write_result_file(b, self.rows([2, 2, 3, 4])[:1])
        assert main(["stats", f"x={a}", f"y={b}", "--out", str(tmp_path / "o")]) == 2
        assert "two problem rows" in capsys.readouterr().err

    def test_single_file_rejected(self, tmp_path):
        a = tmp_path / "a.csv"
        write_result_file(a, self.rows([1, 2, 3, 4]))
        assert main(["stats", f"x={a}"]) == 2


class TestListCommand:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        text = capsys.readouterr().out
        for token in ("F1", "F23", "pressure-vessel", "stepped-beam", "welded-beam"):
            assert token in text

    def test_module_entry_point_lists_every_id_in_order(self, tmp_path):
        lines = run_python(tmp_path, "-m", "figwasp", "list").splitlines()
        assert [line.split()[0] for line in lines] == [*benchmarks.BENCHMARK_IDS, *ENGINEERING_PROBLEMS]


class TestImportPath:
    """No figwasp process loads scipy, and only a campaign that forks loads the process pool."""

    @pytest.mark.parametrize("module", ["figwasp", "figwasp.cli"])
    def test_import_loads_no_scipy(self, tmp_path, module):
        out = run_python(
            tmp_path,
            "-c",
            f"import sys, {module}; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])",
        )
        assert out.strip() == "[]"

    @pytest.mark.parametrize("module", ["figwasp", "figwasp.cli"])
    def test_import_loads_no_process_pool(self, tmp_path, module):
        out = run_python(
            tmp_path,
            "-c",
            f"import sys, {module}; "
            "print([m for m in sys.modules if m == 'concurrent.futures.process' or m.startswith('multiprocessing')])",
        )
        assert out.strip() == "[]"

    def test_stats_runs_without_scipy(self, tmp_path):
        # 21 problem rows: the Wilcoxon tests take the normal branch (n > 20),
        # and three files make the Friedman test's df = 2
        rng = np.random.default_rng(9)
        for name in ("a", "b", "c"):
            rows = [[f"F{i}", "30", "0", "0", f"{m:.6E}", "0"] for i, m in enumerate(rng.normal(size=21), 1)]
            write_result_file(tmp_path / f"{name}.csv", rows)
        out = run_python(
            tmp_path,
            "-c",
            "import sys; sys.modules['scipy'] = None\n"
            "from figwasp.cli import main\n"
            "code = main(['stats', 'a.csv', 'b.csv', 'c.csv', '--out', 'o'])\n"
            "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy' and sys.modules[m] is not None])",
        )
        assert out.splitlines()[-1] == "0 []"
        assert "friedman chi-square" in out
        assert len(read_csv(tmp_path / "o" / "friedman.csv")) == 2
        wilcoxon = read_csv(tmp_path / "o" / "wilcoxon.csv")
        assert len(wilcoxon) == 2 and all(0.0 < float(row["p_value"]) <= 1.0 for row in wilcoxon)

    def test_stats_still_writes_both_tables(self, tmp_path):
        for name, means in (("a", [1.0, 2.0, 3.0]), ("b", [2.0, 2.5, 3.5])):
            write_result_file(
                tmp_path / f"{name}.csv",
                [[pid, "30", "0", "0", f"{m:.6E}", "0"] for pid, m in zip(("F1", "F9", "F11"), means)],
            )
        run_python(
            tmp_path,
            "-c",
            "from figwasp.cli import main; raise SystemExit(main(['stats', 'a.csv', 'b.csv', '--out', 'o']))",
        )
        assert len(read_csv(tmp_path / "o" / "friedman.csv")) == 2
        assert len(read_csv(tmp_path / "o" / "wilcoxon.csv")) == 1
