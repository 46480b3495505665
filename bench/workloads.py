"""The four workloads: seeded inputs, the calls of one pass, and their checks.

Each workload builds its inputs and its reference results (the oracle,
the optimality conditions, the recomputed lambda-max) once, before any
timing. A pass runs the workload's fixed list of calls; every output of
every pass is then checked outside the timed region. The program is
reached only through module attributes looked up at call time
(``tvadmm.filters.mean_filter``, ``tvadmm.cli.main``), so the traced run
sees the same calls.
"""

from contextlib import redirect_stdout
from dataclasses import dataclass
import hashlib
import io
import os
from typing import Callable

import numpy as np

import tvadmm.cli
import tvadmm.filters
from tvadmm import MeanFilterSpec, Penalty, SolverConfig, VarianceFilterSpec

import oracle

# Accuracy target of the mean workloads: objective within this share of
# the oracle optimum.
OBJECTIVE_TOL = 1e-3
# Stopping tolerances (eps_abs, eps_rel) chosen so that the target holds
# on every call with margin (see README).
SMALL_TOL = (1e-6, 1e-5)
LONG_TOL = (1e-7, 1e-6)
# Slack, as a share of lambda, on the variance optimality conditions.
VARIANCE_TAU = 0.1

PROTOCOL_SEED = 63
SMALL_DIMS = (1, 1, 2, 1, 2, 3)
LONG_TRUTH_SEED = 7
LONG_SAMPLES = 10_000
LONG_SEGMENTS = 5
CLI_IO_SAMPLES = 200_000
CLI_IO_DIM = 2
CLI_IO_SEGMENTS = 5


@dataclass
class Call:
    """One call of a pass.

    ``run()`` is the timed call. ``capture(output)`` reduces its output,
    outside the timing, to a compact hashable record, so that equal
    outputs of later passes are recognised without being kept; and
    ``check(record)`` judges a record against the reference results.
    """

    name: str
    run: Callable[[], object]
    capture: Callable[[object], object]
    check: Callable[[object], bool]


def piecewise_truth(seed, n_samples, dim, n_segments, level_range=(-5.0, 5.0)):
    """Piecewise-constant means: change points redrawn until every segment
    has at least n_samples/(4*n_segments) samples, levels uniform in the
    range. Draws in the order the package's ``synth`` generator uses and
    returns the generator, so a noise draw from it completes that
    generator's output for the same seed."""
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    min_len = n_samples / (4.0 * n_segments)
    while True:
        cuts = np.sort(rng.choice(np.arange(1, n_samples), size=n_segments - 1,
                                  replace=False))
        lengths = np.diff(np.concatenate(([0], cuts, [n_samples])))
        if (lengths >= min_len).all():
            break
    levels = rng.uniform(level_range[0], level_range[1], size=(n_segments, dim))
    return np.repeat(levels, lengths, axis=0), rng


def seeded_rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def write_csv(path, arr):
    np.savetxt(path, np.atleast_2d(arr), delimiter=",", fmt="%.17g")


def read_csv(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _cli(argv):
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = tvadmm.cli.main(argv)
    return code, out.getvalue()


# --------------------------------------------------------------- mean-small

def _capture_mean(result):
    estimate, report = result
    return (np.ascontiguousarray(estimate, dtype=float).tobytes(),
            bool(report.polished), bool(report.converged))


def small_instances(seed):
    """The 24 short series of ``mean-small``.

    Instance 0 is the N=400 protocol instance: the package generator's
    draw for seed 63 (5 segments, unit noise, identity covariance), the
    same for every benchmark seed. Instances 1..23 have fixed shapes: N
    from 200 to 1000; n = 1, 1, 2, 1, 2, 3 repeating (with instance 0,
    13 scalar series, 8 with n = 2 and 3 with n = 3); 3 to 7 segments. Their
    means come from fixed seeds 1000 + k, their diagonal noise variances
    are fixed draws in [0.5, 2], and only their noise comes from the
    benchmark seed.
    """
    truth, rng = piecewise_truth(PROTOCOL_SEED, 400, 1, 5)
    out = [(truth + rng.standard_normal(truth.shape), np.ones(1), True)]
    for k in range(1, 24):
        n_samples = 200 + (800 * (k - 1)) // 22
        dim = SMALL_DIMS[(k - 1) % len(SMALL_DIMS)]
        truth, fixed = piecewise_truth(1000 + k, n_samples, dim, 3 + (k - 1) % 5)
        variances = fixed.uniform(0.5, 2.0, size=dim)
        noise = seeded_rng(seed, k).standard_normal(truth.shape)
        out.append((truth + noise * np.sqrt(variances), variances, False))
    return out


def mean_small(seed, workdir):
    calls = []
    config = SolverConfig(eps_abs=SMALL_TOL[0], eps_rel=SMALL_TOL[1])
    for k, (data, variances, protocol) in enumerate(small_instances(seed)):
        lam = 0.1 * oracle.lambda_max_elementwise(data, variances)
        sigma = None if protocol else np.diag(variances)
        spec = MeanFilterSpec(lam=lam, penalty=Penalty.ELEMENTWISE, sigma=sigma)
        reference = oracle.mean_oracle(data, variances, lam)

        def run(data=data, spec=spec):
            return tvadmm.filters.mean_filter(data, spec, config)

        def check(record, data=data, variances=variances, lam=lam,
                  reference=reference):
            estimate, polished, converged = record
            ok, _ = oracle.check_mean(np.frombuffer(estimate), data, variances,
                                      lam, reference, polished, OBJECTIVE_TOL)
            return ok and converged

        calls.append(Call("mean_filter[%d]" % k, run, _capture_mean, check))
    return calls


# ---------------------------------------------------------------- mean-long

def long_series(seed):
    """One scalar series of 10^4 samples: five fixed segments (the means
    of the seed-7 draw) plus unit noise from the benchmark seed."""
    truth, _ = piecewise_truth(LONG_TRUTH_SEED, LONG_SAMPLES, 1, LONG_SEGMENTS)
    return truth + seeded_rng(seed, 0).standard_normal(truth.shape)


def mean_long(seed, workdir):
    data = long_series(seed)
    lam = 0.1 * oracle.lambda_max_group(data)
    reference = oracle.mean_oracle(data, [1.0], lam)
    paths = {name: os.path.join(workdir, name + ".csv")
             for name in ("data", "estimate", "history")}
    write_csv(paths["data"], data)
    argv = ["mean", "--input", paths["data"], "--output", paths["estimate"],
            "--residuals", paths["history"], "--lambda", "%.17g" % lam,
            "--eps-abs", "%g" % LONG_TOL[0], "--eps-rel", "%g" % LONG_TOL[1]]

    def capture(result):
        with open(paths["estimate"], encoding="utf-8") as fh:
            return result[0], fh.read()

    def check(record):
        code, text = record
        if code != 0:
            return False
        estimate = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
        ok, _ = oracle.check_mean(estimate, data, [1.0], lam, reference, False,
                                  OBJECTIVE_TOL)
        return ok

    return [Call("cli mean", lambda: _cli(argv), capture, check)]


# --------------------------------------------------------------- var-matrix

VAR_SAMPLES = 150
VAR_BASE_SEED = 0
VAR_WINDOW = 5
VAR_LAMBDA = 5.0
# The two covariance regimes, each holding for half of the series.
VAR_REGIMES = (
    np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.0]]),
    np.array([[3.0, -1.2, 0.3], [-1.2, 2.0, 0.0], [0.3, 0.0, 4.0]]),
)


def variance_series(seed):
    """3x3 zero-mean Gaussian series, N=150: 75 samples of the first
    regime, then 75 of the second, drawn once from a fixed seed, then
    turned by a random orthogonal matrix drawn from the benchmark seed.

    The objective, the iterates (up to the same rotation) and the stop
    test are invariant under y -> Qy, so every benchmark seed gives new
    data with the same iteration count and optimality margins.
    """
    fixed = seeded_rng(VAR_BASE_SEED, 1)
    half = VAR_SAMPLES // 2
    base = np.concatenate([
        fixed.standard_normal((n, 3)) @ np.linalg.cholesky(cov).T
        for n, cov in zip((half, VAR_SAMPLES - half), VAR_REGIMES)
    ])
    q, r = np.linalg.qr(seeded_rng(seed, 2).standard_normal((3, 3)))
    return base @ (q * np.sign(np.diag(r))).T


def var_matrix(seed, workdir):
    data = variance_series(seed)
    grams = oracle.trailing_grams(data, VAR_WINDOW)
    spec = VarianceFilterSpec(lam=VAR_LAMBDA, penalty=Penalty.GROUP, window=VAR_WINDOW)

    def run():
        return tvadmm.filters.variance_filter(data, spec)

    def capture(result):
        estimate, report = result
        return (estimate.precision.tobytes(), estimate.covariance.tobytes(),
                bool(report.converged))

    def check(record):
        precision, covariance = (np.frombuffer(blob).reshape(-1, 3, 3)
                                 for blob in record[:2])
        ok, _ = oracle.check_variance(precision, covariance, grams, VAR_LAMBDA,
                                      VARIANCE_TAU)
        return ok and record[2]

    return [Call("variance_filter", run, capture, check)]


# ------------------------------------------------------------------- cli-io

class _SynthCheck:
    """Checks of the ``synth`` output files."""

    def __init__(self, data_path, truth_path):
        self.paths = (data_path, truth_path)
        # The parsed data file, once checked, for the lambda-max check.
        self.data = None

    def capture(self, result):
        return (result[0],) + tuple(_digest(path) for path in self.paths)

    def check(self, record):
        # Only the last pass's files are still on disk; a pass whose files
        # differ from them broke determinism and fails.
        if record[0] != 0 or record != self.capture((0, None)):
            return False
        texts = [open(path, encoding="utf-8").read() for path in self.paths]
        data, truth = (read_csv(path) for path in self.paths)
        if not (all(oracle.exact_text(text) for text in texts)
                and oracle.check_synth(data, truth, CLI_IO_SAMPLES, CLI_IO_DIM,
                                       CLI_IO_SEGMENTS)):
            return False
        self.data = data
        return True


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli_io(seed, workdir):
    data_path = os.path.join(workdir, "synth.csv")
    truth_path = os.path.join(workdir, "truth.csv")
    synth = ["synth", "--output", data_path, "--truth", truth_path,
             "--seed", str(int(seed)), "--n-samples", str(CLI_IO_SAMPLES),
             "--dim", str(CLI_IO_DIM), "--segments", str(CLI_IO_SEGMENTS)]
    synth_check = _SynthCheck(data_path, truth_path)

    def check_lambda_max(record):
        code, text = record
        return (code == 0 and synth_check.data is not None
                and oracle.check_lambda_max(text, synth_check.data))

    return [
        Call("cli synth", lambda: _cli(synth), synth_check.capture,
             synth_check.check),
        Call("cli lambda-max", lambda: _cli(["lambda-max", "--input", data_path]),
             lambda result: result, check_lambda_max),
    ]


WORKLOADS = {
    "mean-small": mean_small,
    "mean-long": mean_long,
    "var-matrix": var_matrix,
    "cli-io": cli_io,
}
