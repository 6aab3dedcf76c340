"""End-to-end CLI tests: subcommands, file schemas, determinism, exit codes."""

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bayesbag import __version__, cli, core
from bayesbag.cli import _parse_grid, _resolve_m, _split_indices, main
from bayesbag.errors import IngestionError, NumericDomainError
from bayesbag.linreg import (
    NIGHyperparams,
    RegressionDataset,
    enumerate_models,
    log_priors,
    make_evaluator,
    param_moments_from_stats,
    pips,
    weighted_stats,
)
from bayesbag.simgen import SimConfig, sample_dataset


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def manifest_config(out):
    return json.loads((Path(out) / "manifest.json").read_text())["config"]


def write_dataset_csv(path, n, d, seed=0, target_equals_column=None):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, d))
    y = z[:, 0] * 1.5 + rng.standard_normal(n) * 0.3
    if target_equals_column is not None:
        y = z[:, target_equals_column].copy()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(d)] + ["y"])
        for i in range(n):
            writer.writerow([repr(float(v)) for v in z[i]] + [repr(float(y[i]))])
    return path


class TestHelpers:
    def test_resolve_m(self):
        assert _resolve_m("N", 123) == 123
        assert _resolve_m("50", 123) == 50

    def test_split_sizes(self):
        parts = _split_indices(506, 3, np.random.default_rng(0))
        assert sorted(len(p) for p in parts) == [168, 169, 169]
        joined = np.concatenate(parts)
        assert len(np.unique(joined)) == 506

    def test_parse_grid(self):
        np.testing.assert_allclose(_parse_grid("0:1:0.5"), [0.0, 0.5, 1.0])
        np.testing.assert_allclose(_parse_grid("1,2,3"), [1.0, 2.0, 3.0])

    def test_every_dest_is_named_by_its_first_flag(self):
        # one name per setting: the dest is the flag of an @FILE line and the manifest key
        commands = next(a for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        for command, parser in commands.items():
            seen = {"help"}
            for action in parser._actions:
                if not action.option_strings or action.dest in seen:
                    continue
                seen.add(action.dest)
                flag = action.option_strings[0]
                assert action.dest == flag.lstrip("-").replace("-", "_").lower(), (command, flag)


class TestSimulate:
    def test_row_counts_schema_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = [
            "simulate", "--D", 4, "--k", 1, "--N", 60, "--response", "linear",
            "--replicates", 3, "--B", 6, "--seed", 5,
        ]
        assert run(*argv, "--out", out1) == 0
        assert run(*argv, "--out", out2) == 0
        rows = read_csv(out1 / "pips.csv")
        assert len(rows) == 3 * 2 * 4
        assert {r["method"] for r in rows} == {"standard", "bayesbag"}
        assert run("schema-check", "--out", out1) == 0
        for name in ("pips.csv", "summary.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_config_file_merging(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("--D=4\n--k=1\n--N=50\n--replicates=2\n--B=4\n--seed=3\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("simulate", f"@{cfg}", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n"] == 50
        # a flag after the file overrides the file's value
        out2 = tmp_path / "out2"
        assert run("simulate", f"@{cfg}", "--N", 40, "--out", out2) == 0
        assert json.loads((out2 / "manifest.json").read_text())["config"]["n"] == 40

    def test_config_does_not_leak_into_later_runs(self, tmp_path):
        # the parser is built once per process; an @FILE's settings last
        # for its own run only
        cfg = tmp_path / "run.cfg"
        cfg.write_text("--B=7\n", encoding="utf-8")
        argv = ["simulate", "--D", 3, "--k", 1, "--N", 30, "--replicates", 1]
        assert run(*argv, f"@{cfg}", "--out", tmp_path / "cfg") == 0
        assert run(*argv, "--out", tmp_path / "plain") == 0
        assert json.loads((tmp_path / "cfg" / "manifest.json").read_text())["config"]["b"] == 7
        plain = json.loads((tmp_path / "plain" / "manifest.json").read_text())
        assert plain["config"]["b"] == core.DEFAULT_REPLICATES

    def test_config_booleans_take_effect(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("--D=3\n--k=1\n--N=30\n--replicates=2\n--B=4\n--export-data\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("simulate", f"@{cfg}", "--out", out) == 0
        assert (out / "dataset_000.csv").exists() and (out / "dataset_001.csv").exists()
        assert run("schema-check", "--out", out) == 0

    def test_config_bad_value_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("--D=3\n--k=1\n--N=abc\n", encoding="utf-8")
        assert run("simulate", f"@{cfg}", "--out", tmp_path / "o") == 1

    def test_missing_required_is_usage_error(self, tmp_path):
        assert run("simulate", "--k", 1, "--N", 50, "--out", tmp_path / "x") == 1

    def test_export_data_round_trips(self, tmp_path):
        out = tmp_path / "out"
        assert run(
            "simulate", "--D", 3, "--k", 1, "--N", 30, "--replicates", 2,
            "--B", 4, "--export-data", "--seed", 1, "--out", out,
        ) == 0
        first = (out / "dataset_000.csv").read_text().splitlines()
        assert first[0] == "z1,z2,z3,y"
        assert len(first) == 31
        assert run("schema-check", "--out", out) == 0
        # exported datasets feed straight back into select
        assert run(
            "select", "--data", out / "dataset_000.csv", "--target", "y",
            "--splits", 2, "--B", 4, "--out", tmp_path / "sel",
        ) == 0


# numbers as a CSV writer may spell them: repr, %.17g, %.6g and ints
NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.6g" % v),
    st.integers(-10**20, 10**20).map(str),
)


@st.composite
def regression_csvs(draw):
    """CSV text with a header and numeric records, with blank and
    whitespace-only lines, LF, CRLF or CR line ends and quoted cells mixed
    in, and the name of its target column."""
    width = draw(st.integers(2, 4))
    names = [f"c{j}" for j in range(width)]
    target = draw(st.sampled_from(names))

    def cell(text):
        return f'"{text}"' if draw(st.integers(0, 4)) == 0 else text

    # a quoted line break ends a header name, which the reader strips
    breaks = st.sampled_from(["\r", "\n", "\r\n"])
    lines = [",".join('"' + name + draw(breaks) + '"' if draw(st.integers(0, 5)) == 0 else cell(name)
                      for name in names)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["record"] * 6 + ["blank", "spaces", "commas", "ragged", "inf"]))
        if kind == "record":
            lines.append(",".join(cell(draw(NUMBER_CELLS)) for _ in range(width)))
        elif kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "  ", "\t", " \t "])))
        elif kind == "commas":
            lines.append("," * (width - 1))
        elif kind == "ragged":
            lines.append(",".join(draw(NUMBER_CELLS) for _ in range(width + draw(st.sampled_from([-1, 1])))))
        else:
            lines.append(",".join(["inf"] + ["1"] * (width - 1)))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if not draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return "".join(line + end for line, end in zip(lines, ends)), target


def read_by_row_loop(path, target):
    """``read_regression_csv`` with every record parsed by the row loop:
    regressors, response and regressor names."""
    rows = cli._csv_rows(path, cli._read_text(path))
    _, header = next(rows)
    header = [h.strip() for h in header]
    table = cli._table_by_rows(path, rows, len(header))
    t_idx = header.index(target)
    return np.delete(table, t_idx, axis=1), table[:, t_idx].copy(), [h for h in header if h != target]


class TestSelect:
    def test_outputs_and_perfect_predictor(self, tmp_path):
        data = write_dataset_csv(tmp_path / "d.csv", 80, 3, seed=1, target_equals_column=1)
        out = tmp_path / "out"
        code = run(
            "select", "--data", data, "--target", "y", "--splits", 2,
            "--B", 10, "--seed", 2, "--out", out,
        )
        assert code == 0
        full = read_csv(out / "pips_full.csv")
        # the duplicated column x1 is component 2
        for method in ("standard", "bayesbag"):
            pip = [float(r["pip"]) for r in full if r["method"] == method and r["component"] == "2"]
            assert pip[0] > 0.99
        assert run("schema-check", "--out", out) == 0
        repro = read_csv(out / "reproducibility.csv")
        assert len(repro) == 2 * 3

    def test_config_standardize_false(self, tmp_path):
        data = write_dataset_csv(tmp_path / "d.csv", 60, 3, seed=5)
        cfg = tmp_path / "sel.cfg"
        cfg.write_text(f"--data={data}\n--target=y\n--splits=2\n--B=5\n--no-standardize\n",
                       encoding="utf-8")
        out, flag_out, std_out = tmp_path / "cfg", tmp_path / "flag", tmp_path / "std"
        assert run("select", f"@{cfg}", "--out", out) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["standardize"] is False
        argv = ["select", "--data", data, "--target", "y", "--splits", 2, "--B", 5]
        assert run(*argv, "--no-standardize", "--out", flag_out) == 0
        assert run(*argv, "--out", std_out) == 0
        pips_cfg = (out / "pips_full.csv").read_bytes()
        assert pips_cfg == (flag_out / "pips_full.csv").read_bytes()
        assert pips_cfg != (std_out / "pips_full.csv").read_bytes()

    def test_zero_splits_is_usage_error(self, tmp_path):
        data = write_dataset_csv(tmp_path / "d.csv", 20, 2)
        assert run("select", "--data", data, "--target", "y", "--splits", 0,
                   "--out", tmp_path / "o") == 1

    def test_zero_variance_column_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x0", "x1", "y"])
            for i in range(10):
                writer.writerow([i * 0.1, 1.0, i * 0.2])
        assert run("select", "--data", path, "--target", "y", "--out", tmp_path / "o") == 2
        # a constant whose computed standard deviation rounds to about 1e-15
        # at N = 1000 is caught too, by select and by mismatch
        rng = np.random.default_rng(3)
        for constant in (0.1, 7.7):
            assert np.full(1000, constant).std() > 0.0
            path = tmp_path / f"c{constant}.csv"
            rows = [[x, constant, x + 0.5 * y] for x, y in rng.standard_normal((1000, 2)).tolist()]
            path.write_text("x0,x1,y\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows),
                            encoding="utf-8")
            for command in ("select", "mismatch"):
                capsys.readouterr()
                out = tmp_path / f"{command}{constant}"
                assert run(command, "--data", path, "--target", "y", "--out", out) == 2
                assert "zero-variance column(s) cannot be standardized: x1" in capsys.readouterr().err

    def test_ragged_row_reports_line_number(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("x0,y\n1.0,2.0\n3.0\n", encoding="utf-8")
        assert run("select", "--data", path, "--target", "y", "--out", tmp_path / "o") == 2
        assert ":3:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["select", "mismatch"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_is_data_error_naming_the_line(self, tmp_path, capsys, command, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"z1,y\n1.0,2.0\n{cell},3.0\n0.5,1.0\n", encoding="utf-8")
        assert run(command, "--data", path, "--target", "y", "--out", tmp_path / "o") == 2
        assert f"data error: {path}:3: values must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["select", "mismatch"])
    def test_target_only_file_is_data_error(self, tmp_path, capsys, command):
        path = tmp_path / "d.csv"
        path.write_text("y\n1\n2\n3\n", encoding="utf-8")
        assert run(command, "--data", path, "--target", "y", "--out", tmp_path / "o") == 2
        assert f"data error: {path}: no regressor columns besides target 'y'" in capsys.readouterr().err

    def test_repeated_header_column_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("z1,y,y\n1,2,3\n2,3,4\n3,4,5\n", encoding="utf-8")
        assert run("select", "--data", path, "--target", "y", "--out", tmp_path / "o") == 2
        assert f"data error: {path}: header repeats column(s) ['y']" in capsys.readouterr().err

    def test_reader_splits_off_the_target_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y,b\n1,2,3\n\n4,5,6\n", encoding="utf-8")
        data, names = cli.read_regression_csv(path, "y")
        assert names == ["a", "b"]
        np.testing.assert_array_equal(data.z, [[1.0, 3.0], [4.0, 6.0]])
        np.testing.assert_array_equal(data.y, [2.0, 5.0])
        assert data.z.flags.c_contiguous and data.y.flags.c_contiguous

    def test_header_only_file_is_data_error_without_warnings(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("z1,z2,y\n", encoding="utf-8")
        with pytest.raises(IngestionError, match="no data rows") as err:
            cli.read_regression_csv(path, "y")
        assert str(err.value) == f"{path}: no data rows"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("select", "--data", path, "--target", "y", "--out", tmp_path / "o") == 2
        assert caught == []
        assert capsys.readouterr().err == f"data error: {path}: no data rows\n"

    def test_plain_file_is_parsed_without_the_row_loop(self, tmp_path, monkeypatch):
        path = write_dataset_csv(tmp_path / "d.csv", 50, 3, seed=6)
        expected = cli.read_regression_csv(path, "y")
        monkeypatch.setattr(cli, "_table_by_rows", None)  # calling it would raise
        data, names = cli.read_regression_csv(path, "y")
        assert names == expected[1] == ["x0", "x1", "x2"]
        assert data.z.tobytes() == expected[0].z.tobytes() and data.y.tobytes() == expected[0].y.tobytes()

    @pytest.mark.parametrize("narrowest", [False, True])
    def test_cell_over_the_csv_field_limit_is_refused_as_by_the_row_loop(self, tmp_path, capsys,
                                                                         monkeypatch, narrowest):
        # "1.000...0" is a finite number that loadtxt reads, but a cell longer
        # than the csv module's field limit is a data error on either path: a
        # cell of 140,002 characters on line 2, or one of limit + 1 characters
        # on a line that starts one character after a multiple of limit // 2
        limit = csv.field_size_limit()
        pad = (limit // 2 - 4) // 4 if narrowest else 0  # "z1,y\n" then pad "1,1\n" lines
        zeros = limit - 1 if narrowest else 140_000
        path = tmp_path / "d.csv"
        path.write_text("z1,y\n" + "1,1\n" * pad + f"1.{'0' * zeros},1\n2,2\n3,3\n",
                        encoding="utf-8")
        with pytest.raises(IngestionError) as err:
            read_by_row_loop(path, "y")
        assert str(err.value) == f"{path}:{2 + pad}: field larger than field limit ({limit})"
        assert run("select", "--data", path, "--target", "y", "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"data error: {err.value}\n"
        assert not (tmp_path / "o").exists()
        # a file longer than the limit whose lines are all shorter is read by loadtxt
        long = write_dataset_csv(tmp_path / "long.csv", 3000, 3, seed=6)
        assert Path(long).stat().st_size > limit
        expected = read_by_row_loop(long, "y")
        monkeypatch.setattr(cli, "_table_by_rows", None)  # calling it would raise
        data, names = cli.read_regression_csv(long, "y")
        assert data.z.tobytes() == expected[0].tobytes() and data.y.tobytes() == expected[1].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=regression_csvs())
    def test_reader_matches_the_row_loop(self, case):
        text, target = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_bytes(text.encode("utf-8"))
            try:
                expected = read_by_row_loop(path, target)
            except IngestionError as exc:
                with pytest.raises(IngestionError) as err:
                    cli.read_regression_csv(path, target)
                assert str(err.value) == str(exc)
                return
            data, names = cli.read_regression_csv(path, target)
        z, y, expected_names = expected
        assert names == expected_names
        assert data.z.shape == z.shape and data.z.tobytes() == z.tobytes()
        assert data.y.tobytes() == y.tobytes()

    def test_missing_target_is_data_error(self, tmp_path):
        data = write_dataset_csv(tmp_path / "d.csv", 10, 2)
        assert run("select", "--data", data, "--target", "zz", "--out", tmp_path / "o") == 2

    def test_enumeration_guard_exit_code(self, tmp_path):
        data = write_dataset_csv(tmp_path / "wide.csv", 12, 30, seed=3)
        code = run(
            "select", "--data", data, "--target", "y", "--B", 2,
            "--out", tmp_path / "o",
        )
        assert code == 3

    def test_split_reproducibility_favors_bagging(self, tmp_path):
        # on misspecified (cubic-response) data the bagged pips vary less
        # between random splits than the standard pips, for most datasets
        import bayesbag as bb

        wins = 0
        for seed in range(10):
            config = bb.SimConfig(d=10, k=1, n=3000, response_kind="nonlinear", seed=seed)
            data = bb.sample_dataset(config)
            path = tmp_path / f"d{seed}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow([f"x{j}" for j in range(10)] + ["y"])
                for i in range(config.n):
                    writer.writerow(
                        [repr(float(v)) for v in data.z[i]] + [repr(float(data.y[i]))]
                    )
            out = tmp_path / f"out{seed}"
            assert run(
                "select", "--data", path, "--target", "y", "--no-standardize",
                "--q0", 0.1, "--lambda", 16, "--k-star", 2, "--B", 40,
                "--splits", 3, "--seed", seed, "--out", out,
            ) == 0
            ranges = {"standard": [], "bayesbag": []}
            for row in read_csv(out / "reproducibility.csv"):
                ranges[row["method"]].append(float(row["pip_range"]))
            wins += np.mean(ranges["bayesbag"]) <= np.mean(ranges["standard"])
        assert wins >= 7

    def test_select_pips_are_the_library_posteriors(self, tmp_path):
        # the full data and every split, each as bagged_model_posterior gives it alone
        seed, b, n_splits = 4, 6, 3
        path = write_dataset_csv(tmp_path / "d.csv", 90, 4, seed=2)
        out = tmp_path / "out"
        assert run("select", "--data", path, "--target", "y", "--splits", n_splits, "--B", b,
                   "--seed", seed, "--out", out) == 0
        config = manifest_config(out)
        hyper = NIGHyperparams(a0=config["a0"], b0=config["b0"], lam=config["lambda"],
                               q0=config["q0"], k_star=config["k_star"])
        data, names = cli.read_regression_csv(path, "y")
        data = cli.standardize_regressors(data, names)
        models = enumerate_models(data.d, hyper.k_star)
        parts = _split_indices(data.n, n_splits, core.replicate_rng(seed, 99))
        subsets = [data] + [RegressionDataset(z=data.z[idx], y=data.y[idx]) for idx in parts]
        full = read_csv(out / "pips_full.csv")
        splits = read_csv(out / "pips_splits.csv")
        for s, sub in enumerate(subsets):
            bagged = core.bagged_model_posterior(
                make_evaluator(sub, models, hyper), sub.n, log_priors(models, hyper),
                core.BootstrapConfig(m=sub.n, b=b, seed=cli._child_seed(seed, s, 1)),
            )
            rows = full if s == 0 else [row for row in splits if row["split"] == str(s - 1)]
            for method, probs in (("standard", bagged.standard_probs), ("bayesbag", bagged.mean_probs)):
                got = [row["pip"] for row in rows if row["method"] == method]
                assert got == [cli._fmt(v) for v in pips(probs, models)], (s, method)

    def test_evidence_error_names_the_runs_of_its_pass(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise NumericDomainError("b_g = -1.0 is not positive for model row 3 of weight row 7")

        monkeypatch.setattr(cli, "model_log_marginals", fail)
        path = write_dataset_csv(tmp_path / "d.csv", 40, 3)
        out = tmp_path / "o"
        assert run("select", "--data", path, "--target", "y", "--splits", 2, "--B", 3, "--out", out) == 2
        assert capsys.readouterr().err == (
            "data error: run 0 (weight row 0 is its unit-weight row, row i its replicate i): "
            "b_g = -1.0 is not positive for model row 3 of weight row 7\n")
        assert not out.exists()

    def test_evidence_error_names_the_failing_run_and_its_row(self):
        # z1 == z2 on the first three observations: a weight row that counts
        # only those makes Lam_g of {1, 2} singular at lam = 1e-20; of three
        # runs of three rows, only run 2's replicate 2 does (row 8 of the pass)
        rng = np.random.default_rng(5)
        z = np.column_stack([np.ones(6), [1.0, 1.0, 1.0, 0.0, 0.0, 0.0], rng.standard_normal(6)])
        data = RegressionDataset(z=z, y=rng.standard_normal(6))
        unit = np.ones(6, dtype=np.uint8)
        weights = [[unit, [2, 0, 1, 1, 0, 2], [0, 1, 1, 2, 1, 1]],
                   [unit, [1, 1, 0, 0, 2, 2], [3, 0, 0, 1, 1, 1]],
                   [unit, [1, 2, 0, 1, 1, 1], [2, 1, 3, 0, 0, 0]]]

        def rows(block):
            return weighted_stats(data, np.array(block, dtype=np.uint8))

        hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=1e-20, q0=0.5, k_star=3)
        models = enumerate_models(3, 3)
        assert cli._selection_pips(map(rows, weights[:2]), models, hyper).shape == (2, 2, 3)
        with pytest.raises(NumericDomainError, match=(
            r"^run 2 \(weight row 0 is its unit-weight row, row i its replicate i\): "
            r"Lam_g for model row 6 of weight row 2 has a pivot that is not positive and finite"
        )):
            cli._selection_pips(map(rows, weights), models, hyper)

    @pytest.mark.parametrize("command", ["select", "simulate"])
    def test_one_run_per_pass_gives_the_same_bytes(self, tmp_path, monkeypatch, command):
        if command == "select":
            argv = ["select", "--data", write_dataset_csv(tmp_path / "d.csv", 70, 5, seed=3),
                    "--target", "y", "--splits", 2, "--B", 5, "--seed", 1]
        else:
            argv = ["simulate", "--D", 4, "--k", 2, "--N", 50, "--replicates", 3, "--B", 6,
                    "--seed", 8, "--export-data"]
        calls = []
        evidence = cli.model_log_marginals
        monkeypatch.setattr(cli, "model_log_marginals",
                            lambda *a, **k: (calls.append(1), evidence(*a, **k))[1])
        assert run(*argv, "--out", tmp_path / "shared") == 0
        assert len(calls) == 1  # all three runs in one pass
        monkeypatch.setattr(cli, "_PASS_FLOATS", 1)
        assert run(*argv, "--out", tmp_path / "alone") == 0
        assert len(calls) == 1 + 3
        names = sorted(f.name for f in (tmp_path / "alone").iterdir() if f.name != "manifest.json")
        assert names == sorted(f.name for f in (tmp_path / "shared").iterdir() if f.name != "manifest.json")
        for name in names:
            assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


class TestAsymptotics:
    def test_curves_and_checkpoints(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            "asymptotics", "--delta-grid", "0,2", "--c-grid", "1", "--u-grid",
            "0.1:0.9:0.2", "--mu3-grid", "0", "--sigma3-grid", "1",
            "--rho-grid", "0", "--n-samples", 2000,
            "--seed", 1, "--out", out,
        )
        assert code == 0
        assert run("schema-check", "--out", out) == 0
        rows = {r["name"]: float(r["value"]) for r in read_csv(out / "checkpoints.csv")}
        assert abs(rows["p_std_wrong_delta2"] - 0.02275) < 1e-4
        # closed-form value of the c = 1 CDF at 0.1 with effect size 2
        assert abs(rows["ubb_cdf_0.1_delta2_c1"] - 5.1619e-4) < 1e-6
        events = read_csv(out / "two_model_events.csv")
        assert len(events) == 2  # two deltas, one c
        scenarios = read_csv(out / "three_model_curves.csv")
        assert {r["scenario"] for r in scenarios} == {"vary_mean", "vary_variance", "vary_correlation"}

    def test_manifest_records_the_grids(self, tmp_path):
        out = tmp_path / "out"
        assert run("asymptotics", "--mu3-grid=0.5", "--sigma3-grid=", "--rho-grid=",
                   "--n-samples", 500, "--out", out) == 0
        config = manifest_config(out)
        assert config["mu3_grid"] == [0.5] and config["rho_grid"] == []
        assert config["c_grid"] == [0.25, 0.5, 1.0, 2.0, 4.0]

    def test_config_negative_grid_value(self, tmp_path):
        # an @FILE value that starts with '-' reaches its option like a flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text("--mu3-grid=-1:1:0.5\n--sigma3-grid=\n--rho-grid=\n--n-samples=500\n",
                       encoding="utf-8")
        assert run("asymptotics", f"@{cfg}", "--out", tmp_path / "cfg") == 0
        assert run("asymptotics", "--mu3-grid=-1:1:0.5", "--sigma3-grid=", "--rho-grid=",
                   "--n-samples", 500, "--out", tmp_path / "flags") == 0
        rows = read_csv(tmp_path / "cfg" / "three_model_curves.csv")
        assert [float(r["value"]) for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        for name in ("three_model_curves.csv", "two_model_events.csv", "checkpoints.csv"):
            assert (tmp_path / "cfg" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()


    def test_default_two_model_tables_match_the_closed_forms(self, tmp_path, monkeypatch):
        # the closed forms of perfbench/make_refs.py, on the columns before
        # they are formatted to 12 significant digits
        from scipy.stats import norm

        written = {}
        write = cli._write_results

        def capture(args, files):
            written.update({name: content for name, (_, content) in files.items()})
            write(args, files)

        monkeypatch.setattr(cli, "_write_results", capture)
        out = tmp_path / "o"
        assert run("asymptotics", "--mu3-grid=", "--sigma3-grid=", "--rho-grid=", "--out", out) == 0
        delta = np.arange(0.0, 3.0 + 0.125, 0.25)
        c = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        u = np.arange(0.02, 0.98 + 0.01, 0.02)

        d, cc, p_std_wrong, threshold, p_bagged_below = map(np.asarray, written["two_model_events.csv"])
        np.testing.assert_array_equal(d, np.repeat(delta, c.size))
        np.testing.assert_array_equal(cc, np.tile(c, delta.size))
        np.testing.assert_array_equal(threshold, 0.1)
        np.testing.assert_allclose(p_std_wrong, norm.sf(d), rtol=1e-12)
        np.testing.assert_allclose(p_bagged_below, norm.cdf(norm.ppf(0.1) / np.sqrt(cc) - d), rtol=1e-12)

        d, cc, uu, density = written["two_model_density.csv"]
        np.testing.assert_array_equal(d, np.repeat(delta, c.size * u.size))
        np.testing.assert_array_equal(cc, np.tile(np.repeat(c, u.size), delta.size))
        np.testing.assert_array_equal(uu, np.tile(u, delta.size * c.size))
        z = norm.ppf(uu)
        np.testing.assert_allclose(density, norm.pdf(z / np.sqrt(cc) - d) / np.sqrt(cc) / norm.pdf(z),
                                   rtol=1e-12)
        assert len(read_csv(out / "two_model_density.csv")) == d.size

    @pytest.mark.parametrize("flag", ["--threshold=nan", "--u-grid=nan", "--mu3-grid=nan",
                                      "--delta-grid=nan", "--c-grid=inf", "--three-model-c=nan"])
    def test_non_finite_setting_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "o"
        assert run("asymptotics", flag, "--n-samples", 50, "--out", out) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_non_finite_result_is_data_error(self, tmp_path, capsys):
        # u = 1e-320 is inside (0, 1), but the c = 100 density overflows:
        # a data error naming the cell, with no numpy warning
        out = tmp_path / "o"
        assert run("asymptotics", "--c-grid=100", "--u-grid=1e-320", "--mu3-grid=",
                   "--sigma3-grid=", "--rho-grid=", "--out", out) == 2
        err = capsys.readouterr().err
        assert "data error: density overflows the float range at (delta_inf, c, u) = (0.0, 100.0, 1e-320)" in err
        assert "Warning" not in err
        assert not out.exists()

    def test_zero_c_is_usage_error(self, tmp_path, capsys):
        assert run("asymptotics", "--c-grid=0", "--out", tmp_path / "o") == 1
        assert "usage error: c = 0 gives a point-mass law" in capsys.readouterr().err


class TestMismatch:
    def test_simulated_source_report(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            "mismatch", "--D", 4, "--k", 1, "--N", 400, "--response", "linear",
            "--B", 20, "--seed", 3, "--out", out,
        )
        assert code == 0
        report = json.loads((out / "mismatch.json").read_text())
        assert set(report["per_coordinate"]) == {"log_sigma2", "beta_1", "beta_2", "beta_3", "beta_4"}
        assert report["m"] == 400 and report["b"] == 20
        assert run("schema-check", "--out", out) == 0

    def test_csv_source(self, tmp_path):
        data = write_dataset_csv(tmp_path / "d.csv", 120, 3, seed=4)
        out = tmp_path / "out"
        assert run("mismatch", "--data", data, "--target", "y", "--B", 15,
                   "--seed", 1, "--out", out) == 0
        report = json.loads((out / "mismatch.json").read_text())
        assert report["d"] == 3

    def test_singular_row_is_named_by_its_run_row(self, tmp_path, monkeypatch, capsys):
        # a = 1 and b = 1 on the first three rows: Lam_g is singular at
        # lam = 1e-20 for a weight row that counts only those, which at the
        # default seed is replicate 78 alone, in the eighth block of 10 rows
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n" + "".join(f"1,{b},{y}\n" for b, y in
                                            zip([1, 1, 1, 0, 0, 0], [0.3, -1.2, 0.8, 1.5, -0.4, 0.1])))
        monkeypatch.setattr(core, "BLOCK_BYTES", 60)
        out = tmp_path / "o"
        assert run("mismatch", "--data", path, "--target", "y", "--no-standardize",
                   "--lambda", 1e-20, "--B", 200, "--out", out) == 2
        assert capsys.readouterr().err == (
            "data error: run 0 (weight row 0 is its unit-weight row, row i its replicate i): "
            "Lam_g for weight row 78 has a pivot that is not positive and finite: lam is too "
            "small for these data, or they are not finite\n")
        assert not out.exists()

    def test_per_coordinate_values_match_scalar_reference(self, tmp_path):
        # same dataset and counts as the command, moments one row at a time,
        # and the index by its scalar formula, coordinate by coordinate
        n, b, d, seed = 200, 10, 4, 3
        out = tmp_path / "out"
        assert run("mismatch", "--D", d, "--k", 1, "--N", n, "--B", b, "--seed", seed,
                   "--out", out) == 0
        report = json.loads((out / "mismatch.json").read_text())
        data = sample_dataset(SimConfig(d=d, k=1, n=n, seed=seed), core.replicate_rng(seed, 0))
        counts = core.evaluate_replicates(
            lambda w: w.astype(float), n, core.BootstrapConfig(m=n, b=b, seed=cli._child_seed(seed, 1)), n
        )[1:]
        hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=16.0, q0=0.5, k_star=d)
        gamma = np.ones(d)
        standard = param_moments_from_stats(weighted_stats(data, np.ones(n)), gamma, hyper)
        reps = [param_moments_from_stats(weighted_stats(data, w), gamma, hyper) for w in counts]
        labels = ["log_sigma2", "beta_1", "beta_2", "beta_3", "beta_4"]
        assert list(report["per_coordinate"]) == sorted(labels)  # the report sorts its keys
        expected = []
        for j, label in enumerate(labels):
            v = standard[1, j]
            v_bb = np.mean([r[1, j] for r in reps]) + np.var([r[0, j] for r in reps])
            assert v_bb > v  # no NA at this seed
            expected.append(1.0 - 2.0 * v / v_bb)
            assert report["per_coordinate"][label] == pytest.approx(expected[-1], rel=1e-12)
        assert report["overall"] == pytest.approx(max(expected), rel=1e-12)

    def test_manifest_records_the_settings(self, tmp_path):
        out = tmp_path / "out"
        assert run("mismatch", "--D", 3, "--k", 1, "--N", 60, "--B", 5, "--lambda", 5,
                   "--a0", 3, "--out", out) == 0
        config = manifest_config(out)
        assert config["lambda"] == 5.0 and config["a0"] == 3.0
        assert (config["d"], config["n"], config["m"], config["b"]) == (3, 60, 60, 5)
        # the report itself stays in mismatch.json
        assert not {"overall", "per_coordinate", "schema", "source"} & set(config)

    def test_config_key_lambda(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("--D=3\n--k=1\n--N=60\n--B=5\n--lambda=5\n", encoding="utf-8")
        assert run("mismatch", f"@{cfg}", "--out", tmp_path / "out") == 0
        assert manifest_config(tmp_path / "out")["lambda"] == 5.0
        # lines are the flag names; the old dest spellings are unknown flags
        for key in ("lam", "b-reps", "m-size"):
            cfg.write_text(f"--D=3\n--k=1\n--N=30\n--{key}=5\n", encoding="utf-8")
            assert run("simulate", f"@{cfg}", "--out", tmp_path / key) == 1


@contextmanager
def serial_dataset(config, rng):
    """``cli._dataset_ahead`` without the worker: the dataset first."""
    data = sample_dataset(config, rng)
    yield lambda: data


SMOKE = ("simulate", "--D", 3, "--k", 1, "--N", 30, "--replicates", 2, "--B", 5)
MISMATCH_SMALL = ("mismatch", "--D", 3, "--k", 1, "--N", 60, "--B", 5, "--seed", 4)


class TestDatasetOnAWorker:
    """simulate and synthetic mismatch generate the dataset on a worker
    thread while the counts are drawn; no output may depend on it."""

    @pytest.mark.parametrize("argv", [
        MISMATCH_SMALL + ("--response", "nonlinear"),
        ("simulate", "--D", 4, "--k", 2, "--N", 50, "--replicates", 3, "--B", 6, "--seed", 8,
         "--export-data"),
    ])
    def test_same_bytes_as_the_serial_composition(self, tmp_path, monkeypatch, argv):
        assert run(*argv, "--out", tmp_path / "ahead") == 0
        monkeypatch.setattr(cli, "_dataset_ahead", serial_dataset)
        assert run(*argv, "--out", tmp_path / "serial") == 0
        names = sorted(path.name for path in (tmp_path / "serial").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "ahead").iterdir())
        for name in names:
            assert (tmp_path / "ahead" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()

    def test_simulate_pips_are_the_library_posteriors(self, tmp_path):
        seed, d, n, b = 8, 4, 50, 6
        out = tmp_path / "out"
        assert run("simulate", "--D", d, "--k", 2, "--N", n, "--replicates", 2, "--B", b,
                   "--seed", seed, "--out", out) == 0
        config = manifest_config(out)
        hyper = NIGHyperparams(a0=config["a0"], b0=config["b0"], lam=config["lambda"],
                               q0=config["q0"], k_star=config["k_star"])
        models = enumerate_models(d, hyper.k_star)
        rows = read_csv(out / "pips.csv")
        for r in range(2):
            data = sample_dataset(SimConfig(d=d, k=2, n=n), rng=core.replicate_rng(seed, r, 0))
            bagged = core.bagged_model_posterior(
                make_evaluator(data, models, hyper), n, log_priors(models, hyper),
                core.BootstrapConfig(m=n, b=b, seed=cli._child_seed(seed, r, 1)),
            )
            for method, probs in (("standard", bagged.standard_probs), ("bayesbag", bagged.mean_probs)):
                got = [row["pip"] for row in rows if row["replicate"] == str(r) and row["method"] == method]
                assert got == [cli._fmt(v) for v in pips(probs, models)]

    @pytest.mark.parametrize("argv, code", [
        (MISMATCH_SMALL, 0),
        (SMOKE, 0),
        (("mismatch", "--D", 3, "--k", 1, "--N", 30, "--B", 1), 1),
        (("simulate", "--D", 2, "--k", 2, "--N", 30), 1),
    ])
    def test_no_thread_outlives_main(self, tmp_path, argv, code):
        before = threading.active_count()
        assert run(*argv, "--out", tmp_path / "o") == code
        assert threading.active_count() == before

    def test_generation_error_surfaces_as_itself(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise NumericDomainError("generator overflow")

        monkeypatch.setattr(cli, "sample_dataset", fail)
        before = threading.active_count()
        for argv in (MISMATCH_SMALL, SMOKE):
            out = tmp_path / argv[0]
            assert run(*argv, "--out", out) == 2
            assert capsys.readouterr().err.strip().endswith("data error: generator overflow")
            assert not out.exists()
        assert threading.active_count() == before

    def test_evaluator_error_is_still_an_evaluation_error(self, tmp_path, monkeypatch, capsys):
        # the dataset was generated: the evaluator's own failure is reported
        def fail(*args, **kwargs):
            raise NumericDomainError("stats overflow")

        monkeypatch.setattr(cli, "weighted_stats", fail)
        assert run(*MISMATCH_SMALL, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "data error: evaluator failed" in err and "stats overflow" in err

    @pytest.mark.parametrize("command", ["mismatch", "simulate"])
    def test_sparsity_pattern_is_a_usage_error(self, tmp_path, capsys, command):
        assert run(command, "--D", 2, "--k", 2, "--N", 30, "--out", tmp_path / "o") == 1
        assert "usage error: sparsity pattern for d=2, k=2" in capsys.readouterr().err


class TestOverlap:
    def write_samples(self, path, draws):
        Path(path).write_text("\n".join(draws) + "\n", encoding="utf-8")
        return path

    def test_identical_and_disjoint(self, tmp_path):
        a = self.write_samples(tmp_path / "a.txt", ["t1"] * 6 + ["t2"] * 4)
        b = self.write_samples(tmp_path / "b.txt", ["t3"] * 10)
        out = tmp_path / "same"
        assert run("overlap", "--a", a, "--b", a, "--level", 0.99, "--out", out) == 0
        row = read_csv(out / "overlap.csv")[0]
        assert float(row["mass_avg"]) == pytest.approx(1.0)
        out2 = tmp_path / "disjoint"
        assert run("overlap", "--a", a, "--b", b, "--out", out2) == 0
        row = read_csv(out2 / "overlap.csv")[0]
        assert float(row["mass_avg"]) == 0.0 and row["count"] == "0"

    def test_replicates_with_ci(self, tmp_path):
        rng = np.random.default_rng(0)
        paths = []
        for i in range(6):
            draws = ["t1"] * int(rng.integers(3, 8)) + ["t2"] * 5
            paths.append(self.write_samples(tmp_path / f"rep{i}.txt", draws))
        fixed = self.write_samples(tmp_path / "b.txt", ["t1"] * 5 + ["t3"] * 5)
        out = tmp_path / "out"
        code = run("overlap", "--a", *paths, "--b", fixed, "--ci",
                   "--n-boot", 200, "--seed", 4, "--out", out)
        assert code == 0
        row = read_csv(out / "overlap.csv")[0]
        assert row["ci_lo"] != "" and float(row["ci_lo"]) <= float(row["ci_hi"])
        assert run("schema-check", "--out", out) == 0

    def test_ci_resamples_both_sides(self, tmp_path):
        draws = {"a1.txt": "t1 t2 t1 t3", "a2.txt": "t1 t1 t2", "b.txt": "t2 t3 t3", "b2.txt": "t3 t2 t2 t1"}
        a1, a2, b, b2 = (self.write_samples(tmp_path / name, line.split()) for name, line in draws.items())
        out = tmp_path / "out"
        assert run("overlap", "--a", a1, a2, "--b", b, b2, "--ci", "--n-boot", 200,
                   "--seed", 4, "--level", 0.9, "--out", out) == 0
        digest = hashlib.sha256((out / "overlap.csv").read_bytes()).hexdigest()
        assert digest[:12] == "b7b55a47ae3e"
        assert run("schema-check", "--out", out) == 0

    def test_carriage_return_in_a_label_is_quoted(self, tmp_path):
        # the label is the file name; unquoted, its \r would end the record
        a = self.write_samples(tmp_path / "a\rb.txt", ["t1", "t2"])
        b = self.write_samples(tmp_path / "b.txt", ["t1"])
        out = tmp_path / "out"
        assert run("overlap", "--a", a, "--b", b, "--out", out) == 0
        assert (out / "overlap.csv").read_bytes().split(b"\n")[1].startswith(b'"a\rb.txt",b.txt,')
        assert run("schema-check", "--out", out) == 0

    def test_empty_sample_file(self, tmp_path):
        empty = tmp_path / "e.txt"
        empty.write_text("", encoding="utf-8")
        assert run("overlap", "--a", empty, "--b", empty, "--out", tmp_path / "o") == 2


class TestSchemaCheck:
    def test_detects_tampering(self, tmp_path):
        out = tmp_path / "out"
        assert run("simulate", "--D", 3, "--k", 1, "--N", 40, "--replicates", 2,
                   "--B", 4, "--out", out) == 0
        pips = out / "pips.csv"
        content = pips.read_text().splitlines()
        content[1] = content[1].replace(content[1].split(",")[3], "not-a-number")
        pips.write_text("\n".join(content) + "\n", encoding="utf-8")
        assert run("schema-check", "--out", out) == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_is_data_error(self, tmp_path, capsys, cell):
        out = tmp_path / "out"
        assert run("simulate", "--D", 3, "--k", 1, "--N", 40, "--replicates", 2,
                   "--B", 4, "--out", out) == 0
        pips = out / "pips.csv"
        content = pips.read_text().splitlines()
        fields = content[2].split(",")
        fields[3] = cell
        content[2] = ",".join(fields)
        pips.write_text("\n".join(content) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run("schema-check", "--out", out) == 2
        assert f"data error: {pips}:3:pip: {cell!r} is not finite" in capsys.readouterr().err

    def test_missing_manifest(self, tmp_path):
        assert run("schema-check", "--out", tmp_path) == 2

    @pytest.mark.parametrize("header", ["z1,y,z2", "y"])
    def test_dataset_header_must_be_regressors_then_y(self, tmp_path, header):
        out = tmp_path / "out"
        assert run("simulate", "--D", 2, "--k", 1, "--N", 20, "--replicates", 1,
                   "--B", 2, "--export-data", "--out", out) == 0
        dataset = out / "dataset_000.csv"
        width = len(header.split(","))
        dataset.write_text(header + "\n" + ",".join(["0.5"] * width) + "\n", encoding="utf-8")
        assert run("schema-check", "--out", out) == 2


# doubles at the ends of the float range, subnormals and signed zeros
EDGE_FLOATS = [0.0, -0.0, 5e-324, -1e-320, 2.2250738585072014e-308, 1e-300, -1e300,
               1.7976931348623157e308, 0.1, 1 / 3, 123456789012.5, 1e16]
FINITE_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
CELL_TEXT = st.text(alphabet=st.sampled_from(["a", "b", ",", '"', "\r", "\n", " ", ";", "é"]), max_size=6)


@st.composite
def result_tables(draw):
    """An ``overlap-v1`` table (every cell kind) and a dataset table, with
    float columns that repeat a few values, as lists or as arrays."""
    rows = draw(st.integers(0, 9))
    pool = draw(st.lists(FINITE_FLOATS, min_size=1, max_size=3))
    cell = st.one_of(st.sampled_from(pool), FINITE_FLOATS)

    def floats():
        values = draw(st.lists(cell, min_size=rows, max_size=rows))
        return np.array(values) if draw(st.booleans()) else values

    ints = draw(st.one_of(
        st.lists(st.integers(-10**12, 10**12), min_size=rows, max_size=rows).map(np.array),
        st.lists(st.floats(-1e9, 1e9), min_size=rows, max_size=rows).map(np.array),
    ))
    optional = st.lists(st.one_of(st.none(), cell), min_size=rows, max_size=rows)
    overlap = [draw(st.lists(CELL_TEXT, min_size=rows, max_size=rows)) for _ in range(2)]
    overlap += [floats() for _ in range(4)] + [ints, draw(optional), draw(optional)]
    dataset = [floats() for _ in range(draw(st.integers(2, 4)))]
    return {"overlap.csv": ("overlap-v1", overlap), "dataset_000.csv": (cli.DATASET_SCHEMA, dataset)}


def reference_csv(spec, columns) -> str:
    """A table as ``csv.writer`` writes it with a ``\r\n`` terminator, so
    that a cell holding ``\r`` or ``\n`` is quoted, and each record's
    trailing ``\r\n`` then replaced by ``\n``; each cell is formatted by
    ``format(v, ".12g")``, ``str(int(v))`` or ``str``."""
    formats = {"int": lambda v: str(int(v)), "str": str}
    columns = [np.asarray(values).tolist() if isinstance(values, np.ndarray) else values
               for values in columns]
    records = [[name for name, _ in spec]]
    records += [["" if v is None else formats.get(kind, lambda x: format(x, ".12g"))(v)
                 for v, (_, kind) in zip(row, spec)] for row in zip(*columns)]
    out = []
    for record in records:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(record)
        text = buf.getvalue()
        assert text.endswith("\r\n")
        out.append(text[:-2] + "\n")
    return "".join(out)


def write_tables(out, files):
    cli._write_results(argparse.Namespace(command="overlap", out=str(out)), files)


class TestResultWriter:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(files=result_tables())
    def test_same_bytes_as_csv_writer(self, files):
        with tempfile.TemporaryDirectory() as out:
            write_tables(out, files)
            for filename, (schema, columns) in files.items():
                with open(Path(out) / filename, newline="", encoding="utf-8") as fh:
                    assert fh.read() == reference_csv(cli._spec(schema, columns), columns)

    def test_zero_rows_write_the_header_only(self, tmp_path):
        # a sweep with no rows gives no columns at all, or empty ones
        write_tables(tmp_path, {"three_model_curves.csv": ("three-model-curves-v1", []),
                                "overlap.csv": ("overlap-v1", [[] for _ in range(9)])})
        assert (tmp_path / "three_model_curves.csv").read_bytes() == (
            b"scenario,value,c,p_std_wrong,p_std_wrong_se,threshold,frac_bagged_below,"
            b"frac_bagged_below_se\n")
        assert (tmp_path / "overlap.csv").read_bytes() == (
            b"label_a,label_b,level,mass_a,mass_b,mass_avg,count,ci_lo,ci_hi\n")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, None])
    def test_non_finite_or_missing_float_writes_nothing(self, tmp_path, bad):
        # only a float? column may hold an empty cell
        files = {"checkpoints.csv": ("checkpoint-v1", [["a"], [1.0]]),
                 "overlap.csv": ("overlap-v1", [["a"], ["b"], [0.9], [1.0], [1.0], [bad], [2], [None], [None]])}
        with pytest.raises(NumericDomainError, match="overlap.csv: column 'mass_avg' has a non-finite value"):
            write_tables(tmp_path / "o", files)
        assert not (tmp_path / "o").exists()

    # sha256 of data files of two fixed runs: any changed byte shows here
    DIGESTS = {
        "asy/two_model_density.csv": "450b688aa7f811030191d39f58c749500225b0b10b71f1da3827f189af2eb17c",
        "asy/two_model_events.csv": "96d5e7cfb3957401f167c0fa50ae952fadb205fb1868a027eeabce55224d49b7",
        "sim/dataset_000.csv": "023b349b7d1a98d2c4947b08f2d5da4c1924fcc2edd9eccd2fe06ce757c3c56d",
    }

    def test_recorded_digests(self, tmp_path):
        # -0 and 0 are distinct deltas, written as "-0" and "0"
        assert run("asymptotics", "--delta-grid=-0,0,1", "--c-grid=0.5,1", "--u-grid=0.1,0.5",
                   "--mu3-grid=", "--sigma3-grid=", "--rho-grid=", "--out", tmp_path / "asy") == 0
        assert run("simulate", "--D", 4, "--k", 2, "--N", 50, "--replicates", 2, "--B", 6,
                   "--seed", 8, "--export-data", "--out", tmp_path / "sim") == 0
        assert (tmp_path / "asy" / "two_model_events.csv").read_text().splitlines()[1:3] == [
            "-0,0.5,0.5,0.1,0.0349631633603", "-0,1,0.5,0.1,0.1"]
        for name, digest in self.DIGESTS.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
        assert run("schema-check", "--out", tmp_path / "asy") == 0


class TestUsageErrors:
    def test_missing_out(self):
        assert run("simulate", "--D", 3, "--k", 1, "--N", 40) == 1

    def test_bad_m_token(self, tmp_path):
        assert run(
            "simulate", "--D", 3, "--k", 1, "--N", 40, "--M", "many",
            "--out", tmp_path / "o",
        ) == 1

    def test_zero_d_and_bad_grid_range(self, tmp_path):
        assert run("simulate", "--D", 0, "--k", 1, "--N", 40, "--out", tmp_path / "o") == 1
        assert run("asymptotics", "--delta-grid", "a:b:c", "--out", tmp_path / "o") == 1

    def test_zero_replicates(self, tmp_path):
        out = tmp_path / "o"
        assert run("simulate", "--D", 3, "--k", 1, "--N", 30, "--replicates", 0,
                   "--B", 2, "--out", out) == 1
        assert not out.exists()

    def test_zero_bootstrap_replicates(self, tmp_path):
        out = tmp_path / "o"
        assert run("mismatch", "--D", 3, "--k", 1, "--N", 30, "--B", 0, "--out", out) == 1
        assert not out.exists()

    def test_one_bootstrap_replicate_for_mismatch(self, tmp_path, capsys):
        # the index needs two replicates: a usage error, not a data error
        out = tmp_path / "o"
        blas = cli._openblas()
        before = blas[0]() if blas else None
        assert run("mismatch", "--D", 3, "--k", 1, "--N", 30, "--B", 1, "--out", out) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()
        assert (blas[0]() if blas else None) == before

    def test_more_splits_than_rows(self, tmp_path, capsys):
        data = write_dataset_csv(tmp_path / "d.csv", n=3, d=2)
        out = tmp_path / "o"
        assert run("select", "--data", data, "--target", "y", "--splits", 5, "--out", out) == 1
        err = capsys.readouterr().err
        assert "--splits 5" in err and "3 data rows" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("simulate", "--D", 3, "--k", 1, "--N", 30, "--a0", "inf"),
        ("simulate", "--D", 3, "--k", 1, "--N", 30, "--b0", "inf"),
        ("simulate", "--D", 3, "--k", 1, "--N", 30, "--lambda", "inf"),
        ("simulate", "--D", 3, "--k", 1, "--N", 30, "--h", "inf"),
        ("mismatch", "--D", 3, "--k", 1, "--N", 30, "--a0", "inf"),
        ("mismatch", "--D", 3, "--k", 1, "--N", 30, "--lambda", "nan"),
    ])
    def test_non_finite_prior_or_generator_setting(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert run(*argv, "--out", out) == 1
        setting = {"--lambda": "lam"}.get(argv[-2], argv[-2].lstrip("-"))
        assert f"usage error: {setting} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_non_positive_n_samples(self, tmp_path, n_samples):
        out = tmp_path / "o"
        assert run("asymptotics", "--n-samples", n_samples, "--mu3-grid=", "--sigma3-grid=",
                   "--rho-grid=", "--out", out) == 1
        assert not out.exists()

    def test_inner_samples_rejected(self, tmp_path):
        assert run("asymptotics", "--inner-samples", 2000, "--out", tmp_path / "o") == 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text("--inner-samples=2000\n", encoding="utf-8")
        assert run("asymptotics", f"@{cfg}", "--out", tmp_path / "o") == 1

    @pytest.mark.parametrize("flags", [
        ("--n-boot", -5, "--ci-level", 7), ("--n-boot", 99), ("--ci", "--n-boot", 50),
        ("--ci-level", 0), ("--ci-level", 1), ("--ci-level", "nan"), ("--ci", "--ci-level", 7),
    ])
    def test_overlap_bootstrap_settings_are_checked_with_or_without_ci(self, tmp_path, capsys,
                                                                      flags):
        # before any file is read: the sample files do not exist
        out = tmp_path / "o"
        assert run("overlap", "--a", tmp_path / "a.txt", "--b", tmp_path / "b.txt", *flags,
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and ("--n-boot" in err or "--ci-level" in err)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("simulate", "--D", 3, "--k", 1, "--N", 30, "--b", 5),  # not --b0
        ("simulate", "--D", 3, "--k", 1, "--N", 30, "--lam", 5),  # not --lambda
        ("select", "--data", "d.csv", "--target", "y", "--n"),  # not --no-standardize
    ])
    def test_abbreviated_flag_is_usage_error(self, tmp_path, capsys, argv):
        write_dataset_csv(tmp_path / "d.csv", 20, 2)
        argv = [tmp_path / a if a == "d.csv" else a for a in argv]
        out = tmp_path / "o"
        assert run(*argv, "--out", out) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("simulate", "--D", 3, "--k", 1, "--N", 30),
        ("select", "--data", "d.csv", "--target", "y"),
        ("mismatch", "--D", 3, "--k", 1, "--N", 30),
        ("asymptotics",),
        ("overlap", "--a", "a.txt", "--b", "a.txt", "--ci"),
    ])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, argv):
        write_dataset_csv(tmp_path / "d.csv", 20, 2)
        (tmp_path / "a.txt").write_text("t1\nt2\n", encoding="utf-8")
        argv = [tmp_path / a if str(a).endswith((".csv", ".txt")) else a for a in argv]
        out = tmp_path / "o"
        assert run(*argv, "--seed", -1, "--out", out) == 1
        assert "usage error: argument --seed: must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestArgumentFiles:
    def test_comments_and_blank_lines_are_dropped(self, tmp_path):
        args = tmp_path / "run.args"
        args.write_text("# a small study\n\n--D=3\n  # indented comment\n--k\n1\n\n--N=30  \n"
                        f"--B=4\n--replicates=1\n--out={tmp_path / 'o'}\n", encoding="utf-8")
        assert run("simulate", f"@{args}") == 0
        config = manifest_config(tmp_path / "o")
        assert (config["d"], config["k"], config["n"], config["b"]) == (3, 1, 30, 4)

    def test_required_options_from_a_file(self, tmp_path):
        sim = tmp_path / "sim.args"
        sim.write_text(f"--D=3\n--k=1\n--N=30\n--B=4\n--replicates=1\n--out={tmp_path / 'sim'}\n",
                       encoding="utf-8")
        assert run("simulate", f"@{sim}") == 0
        assert run("schema-check", "--out", tmp_path / "sim") == 0
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("t1\nt2\nt1\n", encoding="utf-8")
        b.write_text("t2\nt2\n", encoding="utf-8")
        sides = tmp_path / "sides.args"
        sides.write_text(f"--a\n{a}\n{a}\n--b\n{b}\n", encoding="utf-8")
        assert run("overlap", f"@{sides}", "--out", tmp_path / "ov") == 0
        row = read_csv(tmp_path / "ov" / "overlap.csv")[0]
        assert (row["label_a"], row["label_b"]) == ("a.txt;a.txt", "b.txt")

    def test_flag_after_the_file_wins_and_before_it_loses(self, tmp_path):
        args = tmp_path / "run.args"
        args.write_text("--D=3\n--k=1\n--N=30\n--replicates=1\n--B=4\n", encoding="utf-8")
        assert run("simulate", "--B", 6, f"@{args}", "--out", tmp_path / "before") == 0
        assert run("simulate", f"@{args}", "--B", 6, "--out", tmp_path / "after") == 0
        assert manifest_config(tmp_path / "before")["b"] == 4
        assert manifest_config(tmp_path / "after")["b"] == 6

    def test_key_value_line_is_usage_error(self, tmp_path, capsys):
        args = tmp_path / "old.cfg"
        args.write_text("B=7\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run("simulate", "--D", 3, "--k", 1, "--N", 30, f"@{args}", "--out", out) == 1
        assert "unrecognized arguments: B=7" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_is_data_error_naming_it(self, tmp_path, capsys):
        missing = tmp_path / "missing.args"
        assert run("simulate", f"@{missing}", "--out", tmp_path / "o") == 2
        assert f"data error: cannot read {missing}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_file_run_equals_flag_run(self, tmp_path):
        flags = ["--D", "4", "--k", "1", "--N", "60", "--replicates", "2", "--B", "6",
                 "--export-data", "--seed", "3"]
        args = tmp_path / "run.args"
        args.write_text("\n".join(flags) + "\n", encoding="utf-8")
        assert run("simulate", *flags, "--out", tmp_path / "flags") == 0
        assert run("simulate", f"@{args}", "--out", tmp_path / "file") == 0
        for name in ("pips.csv", "summary.csv", "dataset_001.csv"):
            assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()
        assert manifest_config(tmp_path / "file") == manifest_config(tmp_path / "flags")


def manifest_run(out):
    return json.loads((Path(out) / "manifest.json").read_text())["run"]


@pytest.fixture
def openblas():
    """numpy's OpenBLAS (get, set), with the caller's thread count set to 2
    for the test and restored afterwards."""
    blas = cli._openblas()
    if blas is None:
        pytest.skip("numpy's OpenBLAS is not reachable")
    get, put = blas
    before = get()
    put(2)
    yield get
    put(before)


class TestBlasThreads:
    def test_command_runs_one_thread_and_restores_the_count(self, tmp_path, openblas):
        out = tmp_path / "out"
        assert run(*SMOKE, "--out", out) == 0
        record = manifest_run(out)
        assert record["blas_threads"] == 1
        assert record["numpy"] == np.__version__ and record["bayesbag"] == __version__
        assert set(record["blas"]) == {"name", "version"}
        assert openblas() == 2
        assert run("schema-check", "--out", out) == 0
        assert openblas() == 2

    def test_count_restored_after_errors(self, tmp_path, openblas, monkeypatch):
        assert run("simulate", "--k", 1, "--N", 50, "--out", tmp_path / "x") == 1
        assert openblas() == 2
        assert run("schema-check", "--out", tmp_path) == 2
        assert openblas() == 2

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "sample_dataset", boom)
        with pytest.raises(RuntimeError):
            run(*SMOKE, "--out", tmp_path / "y")
        assert openblas() == 2

    def test_environment_count_is_left_alone(self, tmp_path):
        # a user's OPENBLAS_NUM_THREADS wins; the manifest records it
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("import sys; from bayesbag import cli; "
                "before = cli._openblas()[0](); code = cli.main(sys.argv[1:]); "
                "print(before, cli._openblas()[0](), code)")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "out"
        done = subprocess.run([sys.executable, "-c", code, *map(str, SMOKE), "--out", str(out)],
                              env=env, check=True, capture_output=True, text=True)
        before, after, status = map(int, done.stdout.split())
        assert status == 0 and before == after
        assert before == 2 or (os.cpu_count() or 1) < 2  # OpenBLAS caps it at the cores
        assert manifest_run(out)["blas_threads"] == before
        assert run("schema-check", "--out", out) == 0

    def test_without_openblas_the_run_proceeds(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_openblas", lambda: None)
        out = tmp_path / "out"
        assert run(*SMOKE, "--out", out) == 0
        assert manifest_run(out)["blas_threads"] is None
        assert run("schema-check", "--out", out) == 0


NOT_UTF8 = b"z1,y\n\xff\xfe,1\n"


def _schema_check_with(tmp_path, command, filename, content):
    """A schema-check call on a fresh result directory in which ``filename``
    is overwritten with ``content``."""
    out = tmp_path / "out"
    argv = {"simulate": SMOKE, "mismatch": ("mismatch", "--D", 3, "--k", 1, "--N", 60, "--B", 5)}
    assert run(*argv[command], "--out", out) == 0
    (out / filename).write_bytes(content)
    return ("schema-check", "--out", out), out / filename


def _input_file(tmp_path, command, flag, content, *rest):
    """A ``command`` call whose ``flag`` names a file holding ``content``;
    the flag ``@`` names it as an argument file."""
    path = tmp_path / "input"
    path.write_bytes(content)
    named = (f"@{path}",) if flag == "@" else (flag, path)
    return (command, *named, *rest, "--out", tmp_path / "o"), path


UNREADABLE = {
    "mismatch report not JSON": lambda t: _schema_check_with(t, "mismatch", "mismatch.json", b"{"),
    "result CSV not UTF-8": lambda t: _schema_check_with(t, "simulate", "pips.csv", NOT_UTF8),
    "manifest not an object": lambda t: _schema_check_with(t, "simulate", "manifest.json", b"[1]"),
    "manifest files not an object": lambda t: _schema_check_with(
        t, "simulate", "manifest.json", b'{"schema_version": 1, "files": ["a.csv"]}'),
    "manifest schema not a string": lambda t: _schema_check_with(
        t, "simulate", "manifest.json", b'{"schema_version": 1, "files": {"a.csv": ["pips-v1"]}}'),
    "manifest schema_version true": lambda t: _schema_check_with(
        t, "simulate", "manifest.json", b'{"schema_version": true, "files": {}}'),
    "manifest file outside the result directory": lambda t: _schema_check_with(
        t, "simulate", "manifest.json", b'{"schema_version": 1, "files": {"../pips.csv": "pips-v1"}}'),
    "manifest absolute file name": lambda t: _schema_check_with(
        t, "simulate", "manifest.json", b'{"schema_version": 1, "files": {"/etc/hostname": "pips-v1"}}'),
    "manifest file name dot": lambda t: _schema_check_with(
        t, "simulate", "manifest.json", b'{"schema_version": 1, "files": {".": "pips-v1"}}'),
    "select data cell over the csv field limit": lambda t: _input_file(
        t, "select", "--data", b"z1,y\n" + b"1" * 200_000 + b",1\n", "--target", "y"),
    "select data not UTF-8": lambda t: _input_file(t, "select", "--data", NOT_UTF8, "--target", "y"),
    "mismatch data not UTF-8": lambda t: _input_file(t, "mismatch", "--data", NOT_UTF8, "--target", "y"),
    "config not UTF-8": lambda t: _input_file(t, "simulate", "@", b"--D=3\n--\xff=1\n"),
    "overlap samples not UTF-8": lambda t: _input_file(t, "overlap", "--a", b"t1\n\xff\n", "--b", t / "input"),
}


@pytest.mark.parametrize("case", UNREADABLE)
def test_unreadable_input_is_data_error_naming_the_file(tmp_path, capsys, case):
    argv, path = UNREADABLE[case](tmp_path)
    blas = cli._openblas()
    before = blas[0]() if blas else None
    capsys.readouterr()
    assert run(*argv) == 2
    assert str(path) in capsys.readouterr().err
    assert (blas[0]() if blas else None) == before


def test_cli_import_leaves_scipy_stats_unloaded():
    # importing scipy roughly doubles the start-up time and memory of every
    # CLI call (scipy.linalg also brings a second OpenBLAS whose threads
    # contend with numpy's), so only the functions that use it import it;
    # the run record reads scipy's version from its metadata
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import bayesbag.cli, sys; record = bayesbag.cli._run_record(); "
            "assert record['scipy'], record; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_run_record_holds_the_scipy_version(monkeypatch):
    from importlib import metadata

    assert cli._run_record()["scipy"] == metadata.version("scipy")

    def absent(name):
        raise metadata.PackageNotFoundError(name)

    monkeypatch.setattr(metadata, "version", absent)
    assert cli._scipy_version.__wrapped__() is None
