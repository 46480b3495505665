import numpy as np
import pytest

from tvadmm import cli, lambda_max_mean


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
        data = write_lines(tmp_path / "in.csv", "0\n5\n-4\n8\n")
        code, out, res = run_mean(tmp_path, data, "--lambda", "1.0",
                                  "--max-iter", "2")
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


def test_no_subcommand_is_input_error(capsys):
    assert cli.main([]) == cli.EXIT_INPUT
    assert "usage" in capsys.readouterr().err

