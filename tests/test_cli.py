import gzip
import os
from pathlib import Path
import subprocess
import sys

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import tvadmm
from tvadmm import cli, filters, lambda_max_mean, segments
from tvadmm.admm import HISTORY_DTYPE


def write_lines(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_mean(tmp_path, input_path, *extra):
    out = tmp_path / "est.csv"
    res = tmp_path / "hist.csv"
    code = cli.main(
        ["mean", "--input", str(input_path), "--output", str(out),
         "--residuals", str(res), *extra]
    )
    return code, out, res


@pytest.mark.filterwarnings("error")
class TestReadMatrixCsv:
    def test_reads_rows(self, tmp_path):
        path = write_lines(tmp_path / "d.csv", "1,2\n3,4\n")
        arr = cli.read_matrix_csv(path)
        assert np.array_equal(arr, [[1.0, 2.0], [3.0, 4.0]])

    def test_bad_token_diagnostic(self, tmp_path):
        path = write_lines(tmp_path / "d.csv", "1,2\n3,oops\n")
        with pytest.raises(ValueError, match=r"line 2, column 2"):
            cli.read_matrix_csv(path)

    def test_ragged_rows(self, tmp_path):
        path = write_lines(tmp_path / "d.csv", "1,2\n3\n")
        with pytest.raises(ValueError, match="line 2"):
            cli.read_matrix_csv(path)

    def test_empty_file(self, tmp_path):
        path = write_lines(tmp_path / "d.csv", "\n")
        with pytest.raises(ValueError):
            cli.read_matrix_csv(path)

    @pytest.mark.parametrize("text, expected", [
        ("1,2\n   \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1\n\x0c\n\u2003\t\n2\n \n", [[1.0], [2.0]]),
        ("1_0\n2\n", [[10.0], [2.0]]),
        ("\n 1 ,\t2 \r\n\n3,4", [[1.0, 2.0], [3.0, 4.0]]),
        ("-0,+.5,1e-320\n", [[-0.0, 0.5, 1e-320]]),
    ])
    def test_accepts(self, tmp_path, text, expected):
        arr = cli.read_matrix_csv(write_lines(tmp_path / "d.csv", text))
        assert np.array_equal(arr.view(np.uint64), np.array(expected).view(np.uint64))

    @pytest.mark.parametrize("text, message", [
        ("1,2,\n3,4,\n", "line 1, column 3: cannot parse '' as a number"),
        ("1,,2\n", "line 1, column 2: cannot parse '' as a number"),
        ("# comment\n1\n", "line 1, column 1: cannot parse '# comment' as a number"),
        ("1,2\n3\n", "line 2: expected 2 columns, found 1"),
        ("1,2\n3,oops\n", "line 2, column 2: cannot parse 'oops' as a number"),
        ("\ufeff1,2\n", "line 1, column 1: cannot parse '\\ufeff1' as a number"),
        ("", "no data rows"),
        ("\n  \n", "no data rows"),
        ("1\nnan\n", "contains non-finite values"),
        ("1,-inf\n", "contains non-finite values"),
        ("1e400\n", "contains non-finite values"),
    ])
    def test_rejects_with_diagnostic(self, tmp_path, text, message):
        path = write_lines(tmp_path / "d.csv", text)
        with pytest.raises(ValueError) as info:
            cli.read_matrix_csv(path)
        assert str(info.value) == "%s: %s" % (path, message)

    def test_missing_file_is_not_looked_up_compressed(self, tmp_path):
        path = tmp_path / "d.csv"
        with gzip.open(str(path) + ".gz", "wt") as fh:
            fh.write("1,2\n")
        with pytest.raises(FileNotFoundError) as info:
            cli.read_matrix_csv(str(path))
        assert info.value.filename == str(path)


def savetxt_reference(path, arr):
    # The writer's contract: the bytes np.savetxt gives for the same rows.
    np.savetxt(path, np.atleast_2d(arr), delimiter=",", fmt="%.17g")
    return path.read_bytes()


def history_reference(history):
    # The header and per-record formatting the history writer keeps.
    lines = ["iter,primal,dual,eps_pri,eps_dual\n"]
    for rec in history:
        lines.append("%d,%s,%s,%s,%s\n" % (
            rec["iter"], "%.17g" % rec["primal"], "%.17g" % rec["dual"],
            "%.17g" % rec["eps_pri"], "%.17g" % rec["eps_dual"]))
    return "".join(lines).encode("utf-8")


def wide_values(rng, shape):
    # Normal values over many decades plus the edge cases of %.17g.
    arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    edge = [-0.0, 0.0, 5e-324, -2.2e-308, 1.7e308, -1.7e308, 0.1, 1.0 / 3.0]
    flat = arr.reshape(-1)
    flat[:min(len(edge), flat.size)] = edge[:flat.size]
    return arr


BLOCK = cli._WRITE_BLOCK_ROWS
EDGE_VALUES = [-0.0, 0.0, np.nan, 5e-324, -2.2e-308, 1.7e308, -1.7e308, 0.1,
               1.0 / 3.0]


def matrix_bytes(tmp_path, arr):
    cli.write_matrix_csv(str(tmp_path / "out.csv"), arr)
    return (tmp_path / "out.csv").read_bytes()


@pytest.mark.filterwarnings("error")
class TestCsvWriters:
    @pytest.mark.parametrize("shape", [
        (1, 3), (50, 1), (20, 9), (cli._WRITE_BLOCK_ROWS + 1, 2),
        (2 * cli._WRITE_BLOCK_ROWS, 1), (0, 2), (4,),
    ])
    def test_matrix_bytes_match_savetxt(self, tmp_path, shape):
        arr = wide_values(np.random.default_rng(len(shape) + shape[0]), shape)
        cli.write_matrix_csv(str(tmp_path / "out.csv"), arr)
        assert (tmp_path / "out.csv").read_bytes() == savetxt_reference(
            tmp_path / "ref.csv", arr)

    @pytest.mark.parametrize("rows", [0, 1, cli._WRITE_BLOCK_ROWS + 3])
    def test_history_bytes_match_record_format(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        history = np.zeros(rows, dtype=HISTORY_DTYPE)
        history["iter"] = np.arange(1, rows + 1)
        for name in ("primal", "dual", "eps_pri", "eps_dual"):
            history[name] = np.abs(wide_values(rng, rows))
        cli.write_history_csv(str(tmp_path / "hist.csv"), history)
        assert (tmp_path / "hist.csv").read_bytes() == history_reference(history)

    def test_solver_history_bytes(self, tmp_path):
        data = write_lines(tmp_path / "in.csv", "0\n1\n4\n4.2\n-1\n")
        code, _, res = run_mean(tmp_path, data, "--lambda", "0.8")
        assert code == cli.EXIT_OK
        lines = res.read_text().splitlines()[1:]
        history = np.array([tuple(float(v) for v in line.split(","))
                            for line in lines], dtype=HISTORY_DTYPE)
        assert res.read_bytes() == history_reference(history)

    @pytest.mark.parametrize("run", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_runs_across_block_edges(self, tmp_path, run):
        rows = wide_values(np.random.default_rng(run), (5, 3))
        arr = np.repeat(rows, [run, 1, run, 2, run], axis=0)
        assert matrix_bytes(tmp_path, arr) == savetxt_reference(tmp_path / "ref.csv", arr)

    @pytest.mark.parametrize("arr", [
        np.full((3 * BLOCK + 7, 2), -2.5),
        np.tile([[1.0, 2.0], [3.0, 4.0]], (BLOCK + 5, 1)),
        np.tile(np.repeat([[1.0, 2.0], [3.0, 4.0]], 2, axis=0), (BLOCK // 2 + 1, 1)),
    ], ids=["all-equal", "alternating", "runs-of-two"])
    def test_equal_and_alternating_rows(self, tmp_path, arr):
        assert matrix_bytes(tmp_path, arr) == savetxt_reference(tmp_path / "ref.csv", arr)

    @pytest.mark.parametrize("rows", [
        [[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0]],
        [[np.nan, 1.0], [-np.nan, 1.0], [np.nan, np.nan]],
        [[5e-324, -5e-324], [-2.2e-308, 2.2250738585072014e-308], [1e-320, 1e-320]],
        [[1.7e308, -1.7e308], [-1.7e308, 1.7e308], [np.finfo(float).max, 0.0]],
    ], ids=["signed-zero", "nan", "subnormal", "huge"])
    def test_bit_distinct_rows_not_merged(self, tmp_path, rows):
        # Rows that == misjudges (signed zeros, NaNs) and extreme
        # magnitudes, each in runs that span a block edge.
        arr = np.repeat(np.array(rows), [BLOCK + 1, 3, BLOCK], axis=0)
        arr = np.concatenate([arr, arr[::-1]])
        assert matrix_bytes(tmp_path, arr) == savetxt_reference(tmp_path / "ref.csv", arr)

    def test_history_with_repeated_rows(self, tmp_path):
        history = np.zeros(3 * BLOCK, dtype=HISTORY_DTYPE)
        history["iter"] = np.repeat([1, 2, 7], [BLOCK + 1, 2, 2 * BLOCK - 3])
        history["primal"] = np.repeat([0.5, 0.5, 1e-300], [BLOCK + 1, 2, 2 * BLOCK - 3])
        history["dual"][::2] = np.pi
        history["eps_pri"] = 1.0 / 3.0
        cli.write_history_csv(str(tmp_path / "hist.csv"), history)
        assert (tmp_path / "hist.csv").read_bytes() == history_reference(history)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rows_from_a_small_pool(self, tmp_path_factory, data):
        width = data.draw(st.integers(1, 3))
        value = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(width=64))
        pool = data.draw(st.lists(st.lists(value, min_size=width, max_size=width),
                                  min_size=1, max_size=4))
        run = st.one_of(st.integers(1, 4), st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1]),
                        st.integers(1, 2 * BLOCK + 3))
        runs = data.draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), run),
                                  min_size=1, max_size=6))
        arr = np.repeat(np.array(pool, dtype=float)[[i for i, _ in runs]],
                        [n for _, n in runs], axis=0)
        tmp = tmp_path_factory.mktemp("pool")
        assert matrix_bytes(tmp, arr) == savetxt_reference(tmp / "ref.csv", arr)

    def test_synth_truth_file(self, tmp_path):
        truth_path = tmp_path / "truth.csv"
        code = cli.main(["synth", "--output", str(tmp_path / "data.csv"),
                         "--truth", str(truth_path), "--seed", "9",
                         "--n-samples", str(3 * BLOCK + 11), "--dim", "2"])
        assert code == cli.EXIT_OK
        _, truth, _ = cli.generate_piecewise_data(9, 3 * BLOCK + 11, 2)
        assert truth_path.read_bytes() == savetxt_reference(tmp_path / "ref.csv", truth)

    def test_synth_data_file(self, tmp_path):
        # Noisy distinct rows over several kernel calls.
        n_samples = 3 * BLOCK + 11
        data_path = tmp_path / "data.csv"
        code = cli.main(["synth", "--output", str(data_path),
                         "--truth", str(tmp_path / "truth.csv"), "--seed", "9",
                         "--n-samples", str(n_samples), "--dim", "2"])
        assert code == cli.EXIT_OK
        data, _, _ = cli.generate_piecewise_data(9, n_samples, 2)
        assert data_path.read_bytes() == savetxt_reference(tmp_path / "ref.csv", data)

    def test_polished_mean_output(self, tmp_path, capsys):
        data, _, _ = cli.generate_piecewise_data(4, 2 * BLOCK + 5)
        path = tmp_path / "in.csv"
        cli.write_matrix_csv(str(path), data)
        code, out, _ = run_mean(tmp_path, path, "--lambda-frac", "0.1",
                                "--eps-abs", "1e-6", "--eps-rel", "1e-6")
        assert code == cli.EXIT_OK
        assert capsys.readouterr().err == ""  # certified, so polished
        estimates = cli.read_matrix_csv(str(out))
        assert len(segments(estimates)) < 20
        assert out.read_bytes() == savetxt_reference(tmp_path / "ref.csv", estimates)

    @pytest.mark.parametrize("shape", [(1, 1), (300, 2), (cli._WRITE_BLOCK_ROWS + 1, 9)])
    def test_round_trip_is_bit_exact(self, tmp_path, shape):
        arr = wide_values(np.random.default_rng(shape[1]), shape)
        path = str(tmp_path / "rt.csv")
        cli.write_matrix_csv(path, arr)
        back = cli.read_matrix_csv(path)
        assert back.shape == shape
        assert np.array_equal(back.view(np.uint64), arr.view(np.uint64))


def g17_reference(arr):
    # The %.17g rows np.savetxt writes, as text.
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in arr.tolist())


# Whole numbers in [1e15, 2**50): n + 0.25 and n + 0.75 are exact doubles
# whose 18th significant digit is a 5 followed by nothing, a tie.
TIE_BASES = np.array([1e15, 1e15 + 1, 1e15 + 12345, 2.0 ** 50 - 2, 2.0 ** 50 - 1])


def powers_of_ten_and_neighbours():
    powers = np.array([float(10 ** k) for k in range(17)]
                      + [float("1e%d" % k) for k in range(-6, 0)])
    below = np.nextafter(powers, 0.0)
    return np.concatenate([powers, below, np.nextafter(below, 0.0),
                           np.nextafter(powers, np.inf)])


@pytest.mark.filterwarnings("error")
class TestG17Kernel:
    # _g17_text, the vectorized %.17g writer of distinct rows, against %
    # formatting: the same text, or None when a value is out of its range.

    def test_distinct_rows_across_kernel_calls(self, tmp_path, monkeypatch):
        # Normal-range rows spanning several kernel calls, with values
        # below 1e-4 (exponent form), signed zeros and one subnormal,
        # which sends its call to % formatting.
        results = []
        kernel = cli._g17_text

        def recorded(block):
            results.append(kernel(block))
            return results[-1]

        monkeypatch.setattr(cli, "_g17_text", recorded)
        rng = np.random.default_rng(11)
        rows = 2 * BLOCK + BLOCK // 2 + 7
        arr = (rng.choice([-1.0, 1.0], (rows, 2)) * rng.uniform(1.0, 10.0, (rows, 2))
               * 10.0 ** rng.integers(-6, 16, (rows, 2)))
        arr[3] = [0.0, -0.0]
        arr[-2] = [-0.0, 1e-6 * 1.5]
        arr[BLOCK + 5, 0] = 5e-324
        assert matrix_bytes(tmp_path, arr) == savetxt_reference(tmp_path / "ref.csv", arr)
        assert len(results) == 3
        assert results[1] is None
        assert results[0] is not None and results[2] is not None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(1e-6, 1e17, exclude_max=True), st.booleans()),
                    min_size=1, max_size=64))
    def test_matches_percent_formatting(self, signed):
        arr = np.array([-v if negative else v for v, negative in signed])[:, None]
        text = cli._g17_text(arr)
        if (np.abs(arr) > 1e-6).all():
            assert text == g17_reference(arr)
        else:
            assert text is None  # the double nearest 1e-6 lies below it

    @pytest.mark.parametrize("values", [
        powers_of_ten_and_neighbours(),
        np.array([np.nextafter(0.1, 0.0), 0.1, np.nextafter(0.1, 1.0)]),
        np.concatenate([TIE_BASES + 0.25, TIE_BASES + 0.75]),
    ], ids=["powers-of-ten", "below-0.1", "ties"])
    def test_edge_values(self, values):
        arr = np.concatenate([values, -values])
        arr = arr[(np.abs(arr) > 1e-6) & (np.abs(arr) < 1e17)].reshape(-1, 2)
        assert cli._g17_text(arr) == g17_reference(arr)

    @pytest.mark.parametrize("value", [1e17, 1e-6, 5e-324, np.inf, np.nan, 1e300])
    def test_out_of_range_is_left_to_percent(self, value):
        assert cli._g17_text(np.array([[1.0, value]])) is None

    @pytest.mark.parametrize("shape", [(1, 0), (3, 0)])
    def test_rows_without_values(self, tmp_path, shape):
        # One empty line per row, which % formatting writes.
        arr = np.zeros(shape)
        assert cli._g17_text(arr) is None
        assert matrix_bytes(tmp_path, arr) == savetxt_reference(tmp_path / "ref.csv", arr)


def record_configs(monkeypatch):
    # The solver configs cli.mean_filter is handed.
    configs = []
    mean_filter = cli.mean_filter

    def recorded(data, spec, config):
        configs.append(config)
        return mean_filter(data, spec, config)

    monkeypatch.setattr(cli, "mean_filter", recorded)
    return configs


class TestMeanCommand:
    def test_constant_input(self, tmp_path, capsys):
        data = write_lines(tmp_path / "in.csv", "2.5\n2.5\n2.5\n")
        code, out, res = run_mean(
            tmp_path, data, "--lambda", "1.0",
            "--eps-abs", "1e-10", "--eps-rel", "1e-10",
        )
        assert code == cli.EXIT_OK
        est = cli.read_matrix_csv(str(out))
        assert np.abs(est - 2.5).max() < 1e-6
        assert "segments: 1" in capsys.readouterr().out

    def test_two_point_kink(self, tmp_path):
        data = write_lines(tmp_path / "in.csv", "0\n2\n")
        code, out, _ = run_mean(tmp_path, data, "--lambda", "0.5", "--rho", "1.0")
        assert code == cli.EXIT_OK
        est = cli.read_matrix_csv(str(out)).ravel()
        assert np.abs(est - [0.5, 1.5]).max() < 1e-3

    def test_residual_history_contract(self, tmp_path):
        data = write_lines(tmp_path / "in.csv", "0\n1\n4\n4.2\n-1\n")
        code, _, res = run_mean(tmp_path, data, "--lambda", "0.8")
        assert code == cli.EXIT_OK
        lines = res.read_text().strip().splitlines()
        assert lines[0] == "iter,primal,dual,eps_pri,eps_dual"
        last = [float(tok) for tok in lines[-1].split(",")]
        assert last[1] <= last[3]
        assert last[2] <= last[4]

    def test_not_converged_exit_code(self, tmp_path, capsys):
        # The group penalty with n > 1 has no certified start, so two
        # iterations stay short of convergence.
        data = write_lines(tmp_path / "in.csv", "0,1\n5,-2\n-4,3\n8,0\n")
        code, out, res = run_mean(tmp_path, data, "--lambda", "1.0",
                                  "--penalty", "group", "--max-iter", "2")
        assert code == cli.EXIT_NOT_CONVERGED
        # results are still written
        assert out.exists() and res.exists()
        assert "no convergence" in capsys.readouterr().err

    def test_missing_input(self, tmp_path):
        code, _, _ = run_mean(tmp_path, tmp_path / "absent.csv", "--lambda", "1")
        assert code == cli.EXIT_INPUT

    def test_bad_csv(self, tmp_path, capsys):
        data = write_lines(tmp_path / "in.csv", "1\nnope\n")
        code, _, _ = run_mean(tmp_path, data, "--lambda", "1")
        assert code == cli.EXIT_INPUT
        assert "line 2" in capsys.readouterr().err

    def test_sigma_dimension_mismatch(self, tmp_path):
        data = write_lines(tmp_path / "in.csv", "1,2\n3,4\n")
        sigma = write_lines(tmp_path / "s.csv", "1\n")
        code, _, _ = run_mean(tmp_path, data, "--sigma", sigma, "--lambda", "1")
        assert code == cli.EXIT_INPUT

    def test_unknown_flag(self, tmp_path, capsys):
        data = write_lines(tmp_path / "in.csv", "1\n2\n")
        code, _, _ = run_mean(tmp_path, data, "--lambda", "1", "--bogus", "3")
        assert code == cli.EXIT_INPUT
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--lambda", "--lambda-frac"])
    def test_nan_lambda_is_input_error(self, tmp_path, capsys, flag):
        data = write_lines(tmp_path / "in.csv", "1\n2\n")
        code, out, _ = run_mean(tmp_path, data, flag, "nan")
        assert code == cli.EXIT_INPUT
        assert "error: lam must be finite and nonnegative, got nan" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_lambda_and_frac_exclusive(self, tmp_path):
        data = write_lines(tmp_path / "in.csv", "1\n2\n")
        code, _, _ = run_mean(tmp_path, data, "--lambda", "1",
                              "--lambda-frac", "0.1")
        assert code == cli.EXIT_INPUT

    def test_full_precision_output(self, tmp_path):
        data = write_lines(tmp_path / "in.csv", "0.1\n0.1\n")
        code, out, _ = run_mean(tmp_path, data, "--lambda", "1.0",
                                "--eps-abs", "1e-12", "--eps-rel", "1e-12")
        assert code == cli.EXIT_OK
        text = out.read_text().strip().splitlines()
        assert float(text[0]) == pytest.approx(0.1, abs=1e-9)
        # 17 significant digits round-trip float64 exactly
        assert len(text[0].replace(".", "").replace("-", "").lstrip("0")) >= 16

    def test_certified_protocol_run_prints_no_warning(self, tmp_path, capsys):
        data, _, _ = cli.generate_piecewise_data(63)
        cli.write_matrix_csv(str(tmp_path / "in.csv"), data)
        code, _, _ = run_mean(tmp_path, tmp_path / "in.csv", "--lambda-frac", "0.1")
        assert code == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("segments: ")
        assert captured.err == ""

    def test_no_solver_flag_keeps_solver_defaults(self, tmp_path, monkeypatch):
        configs = record_configs(monkeypatch)
        data = write_lines(tmp_path / "in.csv", "0\n1\n4\n4.2\n-1\n")
        code, _, _ = run_mean(tmp_path, data, "--lambda", "0.8")
        assert code == cli.EXIT_OK
        assert configs == [tvadmm.SolverConfig()]

    def test_solver_flags_reach_the_config(self, tmp_path, monkeypatch):
        configs = record_configs(monkeypatch)
        data = write_lines(tmp_path / "in.csv", "0\n1\n4\n4.2\n-1\n")
        run_mean(tmp_path, data, "--lambda", "0.8", "--rho", "2", "--alpha",
                 "1.5", "--eps-abs", "1e-6", "--eps-rel", "1e-5",
                 "--max-iter", "77")
        assert configs == [tvadmm.SolverConfig(rho=2.0, alpha=1.5, eps_abs=1e-6,
                                               eps_rel=1e-5, max_iter=77)]

    def test_rejected_certificate_warns(self, tmp_path, capsys, monkeypatch):
        # One spurious jump, at the first difference the start's first
        # partition leaves free, added to every partition either attempt
        # (the start, then the polish) tries makes each candidate fail its
        # certificate, so the solve runs cold and converges at the default
        # tolerances.
        solve_on_partition = filters._solve_on_partition
        mean_filter = cli.mean_filter
        spurious = []
        reports = []

        def with_spurious_jump(signs, samples, sigma, lam):
            if not spurious:
                spurious.append(np.flatnonzero(signs == 0.0)[0])
            signs = signs.copy()
            signs.flat[spurious[0]] = 1.0
            return solve_on_partition(signs, samples, sigma, lam)

        def recorded(*args):
            estimates, report = mean_filter(*args)
            reports.append(report)
            return estimates, report

        monkeypatch.setattr(filters, "_solve_on_partition", with_spurious_jump)
        monkeypatch.setattr(cli, "mean_filter", recorded)
        data, _, _ = cli.generate_piecewise_data(7, n_samples=4000)
        cli.write_matrix_csv(str(tmp_path / "in.csv"), data)
        code, _, _ = run_mean(tmp_path, tmp_path / "in.csv", "--lambda-frac", "0.1")
        assert code == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("segments: ")
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning: converged, but the estimate fails")
        (report,) = reports
        assert not report.polished
        assert "gap %.3g " % report.certificate_gap in lines[0]
        assert "--eps-abs/--eps-rel" in lines[0]


class TestVarCommand:
    def run_var(self, tmp_path, input_path, *extra):
        out = tmp_path / "cov.csv"
        res = tmp_path / "hist.csv"
        code = cli.main(
            ["var", "--input", str(input_path), "--output", str(out),
             "--residuals", str(res), *extra]
        )
        return code, out, res

    def test_pooled_scalar(self, tmp_path):
        data = write_lines(tmp_path / "in.csv", "1\n1\n1\n")
        code, out, _ = self.run_var(tmp_path, data, "--lambda", "50")
        assert code == cli.EXIT_OK
        cov = cli.read_matrix_csv(str(out))
        assert cov.shape == (3, 1)
        assert np.abs(cov - 1.0).max() < 1e-3

    def test_single_sample(self, tmp_path):
        data = write_lines(tmp_path / "in.csv", "2\n")
        code, out, _ = self.run_var(tmp_path, data, "--lambda", "1")
        assert code == cli.EXIT_OK
        cov = cli.read_matrix_csv(str(out))
        assert abs(cov[0, 0] - 4.0) < 1e-3

    def test_precision_file_written(self, tmp_path):
        data = write_lines(tmp_path / "in.csv", "1\n2\n1.5\n")
        code, out, _ = self.run_var(tmp_path, data, "--lambda", "5")
        assert code == cli.EXIT_OK
        prec = cli.read_matrix_csv(str(tmp_path / "cov_precision.csv"))
        cov = cli.read_matrix_csv(str(out))
        assert np.abs(prec * cov - 1.0).max() < 1e-8

    @pytest.mark.parametrize("output, precision", [
        ("cov.csv", "cov_precision.csv"),
        ("cov", "cov_precision"),
        ("./cov", "./cov_precision"),
        ("run.d/cov", "run.d/cov_precision"),
        (".cov", ".cov_precision"),
    ])
    def test_precision_path_derived_from_output(self, tmp_path, monkeypatch,
                                                output, precision):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.d").mkdir()
        write_lines(tmp_path / "in.csv", "1\n2\n1.5\n")
        code = cli.main(["var", "--input", "in.csv", "--output", output,
                         "--residuals", "hist.csv", "--lambda", "5"])
        assert code == cli.EXIT_OK
        cov = cli.read_matrix_csv(output)
        prec = cli.read_matrix_csv(precision)
        assert np.abs(prec * cov - 1.0).max() < 1e-8

    def test_unbounded_exit_code(self, tmp_path, capsys):
        data = write_lines(tmp_path / "in.csv", "1,2\n2,1\n")
        code, _, _ = self.run_var(tmp_path, data, "--lambda", "0")
        assert code == cli.EXIT_UNBOUNDED
        err = capsys.readouterr().err
        assert "lambda=0" in err and "window=1" in err

    def test_window_unblocks_rank_one_data(self, tmp_path):
        rng = np.random.default_rng(14)
        path = tmp_path / "in.csv"
        np.savetxt(path, rng.normal(size=(12, 2)), delimiter=",", fmt="%.17g")
        code, out, _ = self.run_var(tmp_path, path, "--lambda", "2",
                                    "--window", "4")
        assert code == cli.EXIT_OK
        cov = cli.read_matrix_csv(str(out))
        assert cov.shape == (12, 4)


class TestLambdaMaxCommand:
    def test_two_point(self, tmp_path, capsys):
        data = write_lines(tmp_path / "in.csv", "0\n2\n")
        assert cli.main(["lambda-max", "--input", data]) == cli.EXIT_OK
        assert float(capsys.readouterr().out.strip()) == 1.0

    def test_constant(self, tmp_path, capsys):
        data = write_lines(tmp_path / "in.csv", "3\n3\n3\n")
        assert cli.main(["lambda-max", "--input", data]) == cli.EXIT_OK
        assert float(capsys.readouterr().out.strip()) <= 1e-12

    def test_single_row_rejected(self, tmp_path):
        data = write_lines(tmp_path / "in.csv", "3\n")
        assert cli.main(["lambda-max", "--input", data]) == cli.EXIT_INPUT

    def test_full_precision_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(123)
        arr = rng.normal(size=(20, 1))
        path = tmp_path / "in.csv"
        np.savetxt(path, arr, delimiter=",", fmt="%.17g")
        assert cli.main(["lambda-max", "--input", str(path)]) == cli.EXIT_OK
        printed = float(capsys.readouterr().out.strip())
        assert printed == lambda_max_mean(cli.read_matrix_csv(str(path)))


class TestSynthCommand:
    def run_synth(self, tmp_path, name, *extra):
        out = tmp_path / ("%s_data.csv" % name)
        truth = tmp_path / ("%s_truth.csv" % name)
        code = cli.main(
            ["synth", "--output", str(out), "--truth", str(truth),
             "--seed", "42", *extra]
        )
        return code, out, truth

    def test_deterministic(self, tmp_path):
        code1, out1, truth1 = self.run_synth(tmp_path, "a")
        code2, out2, truth2 = self.run_synth(tmp_path, "b")
        assert code1 == code2 == cli.EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        assert truth1.read_bytes() == truth2.read_bytes()

    def test_default_shape_and_change_points(self, tmp_path):
        code, out, truth = self.run_synth(tmp_path, "c")
        assert code == cli.EXIT_OK
        data = cli.read_matrix_csv(str(out))
        levels = cli.read_matrix_csv(str(truth))
        assert data.shape == (400, 1)
        assert levels.shape == (400, 1)
        assert (np.abs(np.diff(levels.ravel())) > 0).sum() == 4

    def test_single_segment_constant_truth(self, tmp_path):
        code, _, truth = self.run_synth(tmp_path, "d", "--segments", "1",
                                        "--n-samples", "50")
        assert code == cli.EXIT_OK
        levels = cli.read_matrix_csv(str(truth))
        assert np.ptp(levels) == 0.0

    def test_infeasible_segments(self, tmp_path):
        code, _, _ = self.run_synth(tmp_path, "e", "--segments", "80",
                                    "--n-samples", "40")
        assert code == cli.EXIT_INPUT

    def test_round_trip_lambda_zero(self, tmp_path):
        code, out, _ = self.run_synth(tmp_path, "f", "--n-samples", "60")
        assert code == cli.EXIT_OK
        code, est, _ = run_mean(
            tmp_path, out, "--lambda", "0",
            "--eps-abs", "1e-10", "--eps-rel", "1e-10",
        )
        assert code == cli.EXIT_OK
        data = cli.read_matrix_csv(str(out))
        estimates = cli.read_matrix_csv(str(est))
        assert np.abs(estimates - data).max() < 1e-6

    def test_lambda_frac_protocol(self, tmp_path):
        code, out, _ = self.run_synth(tmp_path, "g")
        assert code == cli.EXIT_OK
        code, est, res = run_mean(tmp_path, out, "--lambda-frac", "0.1")
        assert code == cli.EXIT_OK
        lines = res.read_text().strip().splitlines()
        assert len(lines) >= 2
        last = [float(tok) for tok in lines[-1].split(",")]
        assert last[1] <= last[3] and last[2] <= last[4]


@pytest.mark.parametrize("name", ["n_samples", "dim", "n_segments"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 0, -1, 2.5])
def test_generator_counts_are_whole_naming_them(name, value):
    with pytest.raises(ValueError, match="^%s must be a whole number >= 1" % name):
        cli.generate_piecewise_data(1, **{name: value})


@pytest.mark.parametrize("value", [2.5, np.nan, np.inf, -1])
def test_generator_seed_is_whole_naming_it(value):
    with pytest.raises(ValueError, match="^seed must be a whole number >= 0"):
        cli.generate_piecewise_data(value)


def test_generator_seed_accepts_numpy_integers_and_zero():
    for got, expected in zip(cli.generate_piecewise_data(np.int64(5)),
                             cli.generate_piecewise_data(5)):
        assert np.array_equal(got, expected)
    cli.generate_piecewise_data(0)


def test_no_subcommand_is_input_error(capsys):
    assert cli.main([]) == cli.EXIT_INPUT
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("package", ["scipy.sparse", "scipy.linalg"])
def test_import_leaves_scipy_unloaded(package):
    # A fresh interpreter, since this one may have loaded either package
    # for other tests. scipy.linalg costs about 0.3 s to import; the
    # package loads its LAPACK extension without it (tvadmm._lapack), and
    # a scipy that moves that extension would fall back to it silently.
    env = dict(os.environ,
               PYTHONPATH=str(Path(tvadmm.__file__).resolve().parents[1]))
    probe = ("import sys, tvadmm, tvadmm.cli; "
             "print(sorted(m for m in sys.modules if m.startswith(%r)))" % package)
    result = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True, timeout=120)
    assert result.stdout.strip() == "[]"
