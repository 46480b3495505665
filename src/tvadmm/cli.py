"""Command-line front end: CSV in, estimate/residual CSVs out.

Subcommands
-----------
mean        piecewise-constant mean estimates for a CSV time series
var         piecewise-constant covariance estimates
lambda-max  smallest penalty weight giving a constant mean estimate
synth       seeded synthetic piecewise-constant data plus ground truth

Data files are headerless comma-separated values, one time step per row;
residual history files carry a single header row. All numbers are
written with 17 significant digits. Exit codes: 0 converged, 1 input
error, 2 iteration cap reached (results still written), 3 unbounded
problem. A converged ``mean`` whose estimate fails its optimality
certificate still exits 0, with a warning on standard error.
"""

import argparse
import functools
import itertools
import os
import sys
import warnings

import numpy as np

from .admm import HISTORY_DTYPE, SolverConfig
from .exceptions import NumericalFailureError, UnboundedProblemError, whole_count
from .filters import (
    MeanFilterSpec,
    Penalty,
    VarianceFilterSpec,
    lambda_max_mean,
    mean_filter,
    segments,
    variance_filter,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_UNBOUNDED = 3

_FLOAT_FMT = "%.17g"
# Rows per formatted write in the CSV writers: big enough to amortize
# the numpy calls of the run search and the %.17g kernel, small enough
# that a block's floats, text and kernel temporaries (about 320 bytes a
# value) stay a few hundred kB and peak memory does not grow.
_WRITE_BLOCK_ROWS = 512
# generate_piecewise_data's level range and change-point draw limit.
_LEVEL_RANGE = (-5.0, 5.0)
_MAX_ATTEMPTS = 100000


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the CLI contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def read_matrix_csv(path):
    """Read a headerless numeric CSV into a 2-d array.

    Raises ``ValueError`` with a line/column diagnostic on malformed
    input.
    """
    try:
        # An open handle, not the path: numpy's path handling would also
        # open URLs and compressed files.
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            # loadtxt only warns on a file with no data rows.
            warnings.simplefilter("error", UserWarning)
            # To loadtxt a whitespace-only line is a row with one empty
            # field; to the line reader it is blank.
            arr = np.loadtxt(itertools.filterfalse(str.isspace, fh),
                             delimiter=",", ndmin=2, comments=None, dtype=float)
    except (ValueError, UserWarning):
        # loadtxt rejects some tokens float() accepts ("1_0") and words
        # its errors differently, so the line reader decides: it returns
        # the array or raises the diagnostic.
        arr = _read_matrix_lines(path)
    if not np.isfinite(arr).all():
        raise ValueError("%s: contains non-finite values" % path)
    return arr


def _read_matrix_lines(path):
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            parts = text.split(",")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise ValueError(
                    "%s: line %d: expected %d columns, found %d"
                    % (path, line_no, width, len(parts))
                )
            row = []
            for col_no, token in enumerate(parts, 1):
                try:
                    row.append(float(token))
                except ValueError:
                    raise ValueError(
                        "%s: line %d, column %d: cannot parse %r as a number"
                        % (path, line_no, col_no, token.strip())
                    ) from None
            rows.append(row)
    if not rows:
        raise ValueError("%s: no data rows" % path)
    return np.array(rows, dtype=float)


def write_matrix_csv(path, arr):
    """Headerless CSV of ``arr``, as ``np.savetxt(fmt="%.17g", delimiter=",")``."""
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        _write_rows(fh, arr, ",".join([_FLOAT_FMT] * arr.shape[1]) + "\n",
                    g17=True)


def write_history_csv(path, history):
    """Write a solver report's ``history`` array under a header row."""
    # Iteration numbers are integers, exact as floats and printed by %d.
    names = HISTORY_DTYPE.names
    table = np.column_stack([np.asarray(history[name], dtype=float)
                             for name in names])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        _write_rows(fh, table, "%d" + ("," + _FLOAT_FMT) * (len(names) - 1) + "\n")


def _write_rows(fh, arr, row_fmt, g17=False):
    # One write per block of rows: the text matches np.savetxt's
    # row-at-a-time output, and memory stays flat. Piecewise-constant
    # output (synth truth, mean estimates) is mostly long runs of equal
    # rows, so each run of bit-identical rows in a block is formatted
    # once and its text repeated. Bits, not ==, decide equality: -0.0
    # and 0.0 print differently. ``g17`` says that row_fmt is %.17g
    # throughout, so the vectorized kernel may write distinct rows.
    for start in range(0, arr.shape[0], _WRITE_BLOCK_ROWS):
        block = np.ascontiguousarray(arr[start:start + _WRITE_BLOCK_ROWS])
        bits = block.view(np.uint64)
        firsts = np.flatnonzero((bits[1:] != bits[:-1]).any(axis=1)) + 1
        n_rows = block.shape[0]
        if 2 * (len(firsts) + 1) > n_rows:
            # Mostly distinct rows: the kernel, or one format call for
            # the whole block when a value is outside the kernel's range.
            text = _g17_text(block) if g17 else None
            if text is None:
                text = (row_fmt * n_rows) % tuple(block.ravel().tolist())
            fh.write(text)
            continue
        bounds = [0, *firsts.tolist(), n_rows]
        fh.write("".join(
            (row_fmt % tuple(row)) * (stop - first)
            for row, first, stop in zip(block[bounds[:-1]].tolist(),
                                        bounds, bounds[1:])))


# The %.17g kernel. The 17 significant digits of |x| are the integer
# nearest the exact product |x| * 10**(16 - X), X being x's decimal
# exponent. A double times an exact power of ten is exact as a sum of
# two doubles (Dekker, Numer. Math. 18, 1971), so no digit comes from a
# rounded product. The digits are laid out as 24 ASCII bytes, "0000",
# "000" and the leading digit at byte 7, then four groups of four, and
# each value's text is cut from them into a 32-byte frame of four words:
# its sign at byte 0, its number from byte 3 to 24 with the point
# inserted, an exponent suffix at bytes 25-28 and its separator at byte
# 31. Bytes that are not text are 0 and dropped at the end. The word
# shifts assume little-endian byte order.
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves


def _veltkamp_split(a):
    c = _VELTKAMP * a
    high = c - (c - a)
    return high, a - high


_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact to 10**22
_POW10_HIGH, _POW10_LOW = _veltkamp_split(_POW10)


def _times_pow10(mag, mag_high, mag_low, power):
    # Dekker's product: mag * 10**power == high + low exactly.
    p_high = _POW10_HIGH[power]
    p_low = _POW10_LOW[power]
    high = mag * _POW10[power]
    low = ((mag_high * p_high - high) + mag_high * p_low
           + mag_low * p_high) + mag_low * p_low
    return high, low


@functools.cache
def _g17_tables():
    # Built on the kernel's first call, so importing the module stays cheap.
    quads = np.arange(10000)
    text = (quads[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0"))
    # One word per group of four digits; index 10000 is four 0 bytes.
    quad_text = np.zeros(10001, np.uint32)
    quad_text[:10000] = text.astype(np.uint8).view(np.uint32).ravel()
    # Offset of a group's last nonzero digit in it; -100 for "0000".
    trailing = np.zeros(10000, np.int64)
    for k in (1, 2, 3):
        trailing[quads % 10 ** k == 0] = k
    last_nonzero = np.where(quads == 0, -100, 3 - trailing)
    # By units-digit byte u and last nonzero digit byte m (code 32u + m):
    # which digit bytes stay in place (the leading zeros before byte 7
    # only up to the units digit), which move one byte right past the
    # point, and the point itself, left out when no digit follows it.
    u = np.arange(24)[:, None, None]
    m = np.arange(32)[None, :, None]
    j = np.arange(32)
    stop = np.where(m > u, m + 2, u + 1)
    layouts = [np.broadcast_to(mask * np.uint8(value), (24, 32, 32))
               for mask, value in (((j >= np.minimum(u, 7)) & (j <= u), 255),
                                   ((j >= u + 2) & (j < stop), 255),
                                   ((j == u + 1) & (stop > u + 1), ord(".")))]
    in_place, moved, point = (np.ascontiguousarray(layout, np.uint8)
                              .reshape(24 * 32, 32).view(np.uint64)
                              for layout in layouts)
    suffix = np.zeros(23, np.uint64)  # by X + 6
    suffix[0] = int.from_bytes(b"\0e-06\0\0\0", "little")
    suffix[1] = int.from_bytes(b"\0e-05\0\0\0", "little")
    return quad_text, last_nonzero, in_place, moved, point, suffix


_MINUS = np.uint64(ord("-"))
_COMMA = np.uint64(ord(",") << 56)
_COMMA_TO_NEWLINE = np.uint64((ord(",") ^ ord("\n")) << 56)


def _g17_text(block):
    """The text np.savetxt(block, fmt="%.17g", delimiter=",") writes.

    None for a block without values, or when a value is neither +-0 nor
    of magnitude in (1e-6, 1e17). %g prints exponent X = -5 and -6 as
    d.ddde-0X and -4 <= X < 17 in fixed notation, both without trailing
    zeros or a bare point.
    """
    values = block.ravel()
    if sys.byteorder != "little" or not values.size:
        return None
    mag = np.abs(values)
    zero = mag == 0.0
    if not ((mag > 1e-6) & (mag < 1e17) | zero).all():
        return None
    # A log10 estimate of X, off by at most one: checked on the exact
    # product, which must lie in [1e16, 1e17). nextafter(0.1, 0) gives
    # high == 1e16 with low < 0, so high alone cannot decide.
    exp10 = np.floor(np.log10(mag + zero)).astype(np.int64)
    np.clip(exp10, -6, 16, out=exp10)
    mag_high, mag_low = _veltkamp_split(mag)
    high, low = _times_pow10(mag, mag_high, mag_low, 16 - exp10)
    under = ((high < 1e16) | ((high == 1e16) & (low < 0))) & ~zero
    over = (high > 1e17) | ((high == 1e17) & (low >= 0))
    fix = np.flatnonzero(under | over)
    if fix.size:
        exp10[fix] += np.where(over[fix], 1, -1)
        high[fix], low[fix] = _times_pow10(mag[fix], mag_high[fix],
                                           mag_low[fix], 16 - exp10[fix])
    # high is an even integer (its ulp is at least 2), so rounding low
    # half-even rounds high + low half-even.
    digits = high.astype(np.int64) + np.rint(low).astype(np.int64)
    n = digits.size
    groups = np.empty((n, 8), np.int64)
    groups[:, 0] = 0
    groups[:, 6:] = 10000
    top, bottom = np.divmod(digits, 10 ** 8)
    top, groups[:, 3] = np.divmod(top, 10 ** 4)
    groups[:, 1], groups[:, 2] = np.divmod(top, 10 ** 4)
    groups[:, 4], groups[:, 5] = np.divmod(bottom, 10 ** 4)
    quad_text, last_nonzero, in_place, moved_mask, point, suffix = _g17_tables()
    text = quad_text.take(groups).view(np.uint64)
    last = np.full(n, 7)
    for k in range(4):
        np.maximum(last, last_nonzero.take(groups[:, 2 + k]) + 8 + 4 * k,
                   out=last)
    # The units digit's byte: 7 + X in fixed notation, 7 before an exponent.
    code = np.where(exp10 < -4, 7, 7 + exp10) * 32 + last
    frame = in_place.take(code, axis=0)
    frame &= text
    moved = text << np.uint64(8)
    moved.ravel()[1:] |= text.ravel()[:-1] >> np.uint64(56)
    moved &= moved_mask.take(code, axis=0)
    frame |= moved
    frame |= point.take(code, axis=0)
    frame[:, 0] |= np.signbit(values) * _MINUS
    frame[:, 3] |= suffix.take(exp10 + 6)
    frame[:, 3] |= _COMMA
    frame.reshape(block.shape + (4,))[:, -1, 3] ^= _COMMA_TO_NEWLINE
    return frame.tobytes().translate(None, b"\0").decode("ascii")


def generate_piecewise_data(seed, n_samples=400, dim=1, n_segments=5):
    """Seeded piecewise-constant data with unit-variance Gaussian noise.

    All randomness comes from numpy's PCG64 generator keyed by
    ``seed``, a whole number >= 0, so output is reproducible across
    platforms. Change points are drawn uniformly without replacement and
    re-drawn until every segment is at least n_samples/(4*n_segments)
    long. The counts are whole numbers >= 1, with ``n_segments`` <=
    ``n_samples``.

    Returns ``(data, truth, change_points)`` where ``change_points``
    are 0-based indices of the first sample of each new segment.
    """
    seed = whole_count("seed", seed, lowest=0)
    n_samples = whole_count("n_samples", n_samples)
    dim = whole_count("dim", dim)
    n_segments = whole_count("n_segments", n_segments)
    if n_segments > n_samples:
        raise ValueError("cannot place %d segments in %d samples"
                         % (n_segments, n_samples))
    rng = np.random.Generator(np.random.PCG64(seed))
    min_len = n_samples / (4.0 * n_segments)

    # One segment draws no cuts, and consumes no random numbers doing so.
    for _ in range(_MAX_ATTEMPTS):
        cuts = np.sort(rng.choice(np.arange(1, n_samples), size=n_segments - 1,
                                  replace=False))
        lengths = np.diff(np.concatenate(([0], cuts, [n_samples])))
        if (lengths >= min_len).all():
            break
    else:
        raise ValueError(
            "could not place %d segments of length >= %.3g in %d samples"
            % (n_segments, min_len, n_samples)
        )
    levels = rng.uniform(*_LEVEL_RANGE, size=(n_segments, dim))
    truth = np.repeat(levels, lengths, axis=0)
    data = truth + rng.standard_normal((n_samples, dim))
    return data, truth, cuts


def _solver_config(args):
    given = vars(args)
    return SolverConfig(**{name: given[name] for name in
                           ("rho", "alpha", "eps_abs", "eps_rel", "max_iter")
                           if name in given})


def _resolve_lambda(args, data, sigma, penalty):
    if args.lam is not None:
        return args.lam
    return args.lambda_frac * lambda_max_mean(data, sigma, penalty)


def _print_segments(estimates):
    segs = segments(estimates)
    print("segments: %d" % len(segs))
    for seg in segs:
        if np.ndim(seg.level) == 0:
            level = _FLOAT_FMT % seg.level
        else:
            level = " ".join(_FLOAT_FMT % v for v in np.ravel(seg.level))
        print("  %d..%d  level %s" % (seg.start, seg.end, level))


def _cmd_mean(args):
    data = read_matrix_csv(args.input)
    sigma = read_matrix_csv(args.sigma) if args.sigma else None
    penalty = Penalty(args.penalty)
    lam = _resolve_lambda(args, data, sigma, penalty)
    spec = MeanFilterSpec(lam=lam, penalty=penalty, sigma=sigma)
    estimates, report = mean_filter(data, spec, _solver_config(args))
    write_matrix_csv(args.output, estimates)
    write_history_csv(args.residuals, report.history)
    _print_segments(estimates)
    if not report.converged:
        print(
            "warning: no convergence within %d iterations" % report.iterations,
            file=sys.stderr,
        )
        return EXIT_NOT_CONVERGED
    if report.certificate_gap is not None and not report.polished:
        # The residual stop can accept an estimate far from the optimum.
        print(
            "warning: converged, but the estimate fails its optimality "
            "certificate (gap %.3g at lambda %.3g); it may be far from the "
            "optimum: try smaller --eps-abs/--eps-rel"
            % (report.certificate_gap, lam),
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_var(args):
    data = read_matrix_csv(args.input)
    spec = VarianceFilterSpec(lam=args.lam, penalty=Penalty(args.penalty),
                              window=args.window)
    try:
        estimate, report = variance_filter(data, spec, _solver_config(args))
    except UnboundedProblemError as exc:
        print(
            "error: unbounded problem (lambda=%g, window=%d): %s"
            % (args.lam, args.window, exc),
            file=sys.stderr,
        )
        return EXIT_UNBOUNDED
    n_samples, dim = estimate.covariance.shape[:2]
    write_matrix_csv(args.output, estimate.covariance.reshape(n_samples, dim * dim))
    x_output = args.x_output
    if x_output is None:
        stem, ext = os.path.splitext(args.output)
        x_output = stem + "_precision" + ext
    write_matrix_csv(x_output, estimate.precision.reshape(n_samples, dim * dim))
    write_history_csv(args.residuals, report.history)
    if not report.converged:
        print(
            "warning: no convergence within %d iterations" % report.iterations,
            file=sys.stderr,
        )
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_lambda_max(args):
    data = read_matrix_csv(args.input)
    sigma = read_matrix_csv(args.sigma) if args.sigma else None
    value = lambda_max_mean(data, sigma, Penalty(args.penalty))
    print(_FLOAT_FMT % value)
    return EXIT_OK


def _cmd_synth(args):
    data, truth, _ = generate_piecewise_data(
        seed=args.seed,
        n_samples=args.n_samples,
        dim=args.dim,
        n_segments=args.segments,
    )
    write_matrix_csv(args.output, data)
    write_matrix_csv(args.truth, truth)
    return EXIT_OK


def _add_solver_flags(sub, with_lambda_frac):
    lam_group = sub.add_mutually_exclusive_group(required=True)
    lam_group.add_argument("--lambda", dest="lam", type=float, default=None,
                           help="penalty weight")
    if with_lambda_frac:
        lam_group.add_argument(
            "--lambda-frac", dest="lambda_frac", type=float, default=None,
            help="set the penalty weight to this fraction of lambda-max",
        )
    sub.add_argument("--penalty", choices=["group", "elementwise"],
                     default="group")
    sub.add_argument("--rho", type=float, default=None,
                     help="penalty parameter (default: lambda, or 1 if zero)")
    # Left out, these keep SolverConfig's defaults.
    sub.add_argument("--alpha", type=float, default=argparse.SUPPRESS,
                     help="over-relaxation parameter in [1, 2)")
    sub.add_argument("--eps-abs", type=float, default=argparse.SUPPRESS)
    sub.add_argument("--eps-rel", type=float, default=argparse.SUPPRESS)
    sub.add_argument("--max-iter", type=int, default=argparse.SUPPRESS)


def build_parser():
    parser = _Parser(prog="tvadmm", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    mean = subs.add_parser("mean", help="piecewise-constant mean filtering")
    mean.add_argument("--input", required=True)
    mean.add_argument("--output", required=True, help="estimates CSV")
    mean.add_argument("--residuals", required=True, help="residual history CSV")
    mean.add_argument("--sigma", default=None,
                      help="noise covariance CSV (default: identity)")
    _add_solver_flags(mean, with_lambda_frac=True)
    mean.set_defaults(func=_cmd_mean)

    var = subs.add_parser("var", help="piecewise-constant variance filtering")
    var.add_argument("--input", required=True)
    var.add_argument("--output", required=True, help="covariance estimates CSV")
    var.add_argument("--x-output", default=None,
                     help="inverse-covariance estimates CSV "
                          "(default: derived from --output)")
    var.add_argument("--residuals", required=True, help="residual history CSV")
    var.add_argument("--window", type=int, default=1,
                     help="trailing samples averaged into each data matrix")
    _add_solver_flags(var, with_lambda_frac=False)
    var.set_defaults(func=_cmd_var)

    lmax = subs.add_parser("lambda-max",
                           help="largest weight with a non-constant estimate")
    lmax.add_argument("--input", required=True)
    lmax.add_argument("--sigma", default=None)
    lmax.add_argument("--penalty", choices=["group", "elementwise"],
                      default="group")
    lmax.set_defaults(func=_cmd_lambda_max)

    synth = subs.add_parser("synth", help="generate synthetic test data")
    synth.add_argument("--output", required=True, help="data CSV")
    synth.add_argument("--truth", required=True, help="ground-truth means CSV")
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument("--n-samples", type=int, default=400)
    synth.add_argument("--dim", type=int, default=1)
    synth.add_argument("--segments", type=int, default=5)
    synth.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_INPUT
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except NumericalFailureError as exc:
        print("error: numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
