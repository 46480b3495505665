"""Run one benchmark workload and print its metrics as a JSON line.

    python3 bench/run.py --workload mean-small --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

The workload runs in this process, single-threaded (BLAS pinned to one
thread before numpy loads), against the package under ``src/`` of the
checkout that holds this file. ``--trace 0`` prints the end-to-end
metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``); ``--trace 1`` runs
the traced mode and prints the per-layer metrics instead. ``all`` runs
every workload, each in its own process, and prefixes the metric names
with the workload's. The last line of standard output is the result;
diagnostics go to standard error. See README.md.
"""

import argparse
import json
import os
from pathlib import Path
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter
import traceback

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Set before numpy is imported anywhere in this process or its children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOAD_NAMES = ("mean-small", "mean-long", "var-matrix", "cli-io")
# Fresh interpreters timed for setup_s (after one discarded warm-up).
SETUP_RUNS = 7
# Timed passes made even when they overrun --seconds.
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2

_IMPORT_PROBE = (
    "import time\n"
    "begin = time.perf_counter()\n"
    "import tvadmm, tvadmm.cli\n"
    "print(repr(time.perf_counter() - begin))\n"
)


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0, got %d" % value)
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import ``tvadmm`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import tvadmm

    where = Path(tvadmm.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError("tvadmm imported from %s, not from %s" % (where, SRC))


def measure_setup():
    """Median time a fresh interpreter takes to import tvadmm and tvadmm.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                              cwd=str(ROOT), capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(done.stdout))
    return statistics.median(times[1:])


class Tally:
    """Distinct outputs of each call and how often each occurred.

    A seeded workload returns the same output on every pass, so only one
    copy per call is kept and checked, however many passes ran.
    """

    def __init__(self, calls):
        self.calls = calls
        self.seen = [{} for _ in calls]

    def add(self, records):
        for seen, record in zip(self.seen, records):
            seen[record] = seen.get(record, 0) + 1

    def verdict(self):
        """(attempted, failed, correct) over every call of every pass."""
        attempted = failed = 0
        correct = True
        for call, seen in zip(self.calls, self.seen):
            for record, times in seen.items():
                attempted += times
                if record[0] == "raised":
                    failed += times
                    continue
                try:
                    ok = bool(call.check(record[1]))
                except Exception:
                    traceback.print_exc()
                    ok = False
                if not ok:
                    print("check failed: %s" % call.name, file=sys.stderr)
                    failed += times
                    correct = False
        return attempted, failed, correct


def run_pass(calls):
    """Run every call once; returns the pass's wall time and its records."""
    outputs = []
    begin = perf_counter()
    for call in calls:
        try:
            outputs.append(("ok", call.run()))
        except Exception as exc:
            outputs.append(("raised", exc))
    elapsed = perf_counter() - begin
    records = []
    for call, (status, output) in zip(calls, outputs):
        if status == "ok":
            try:
                records.append(("ok", call.capture(output)))
                continue
            except OSError as exc:  # an output file the call did not write
                output = exc
        print("call raised: %s: %r" % (call.name, output), file=sys.stderr)
        records.append(("raised", repr(output)))
    return elapsed, records


def timed_passes(calls, tally, seconds):
    times = []
    begin = perf_counter()
    while len(times) < MIN_PASSES or (perf_counter() - begin) + times[-1] <= seconds:
        elapsed, records = run_pass(calls)
        tally.add(records)
        times.append(elapsed)
    return times


def traced_passes(calls, tally, seconds):
    """Alternate untraced and traced passes; per-layer figures per traced pass."""
    from spans import COUNTS, Tracer, layer_metrics

    plain, traced, layers = [], [], []
    begin = perf_counter()
    while (len(traced) < MIN_TRACED_PAIRS
           or (perf_counter() - begin) + plain[-1] + traced[-1] <= seconds):
        elapsed, records = run_pass(calls)
        tally.add(records)
        plain.append(elapsed)
        tracer = Tracer()
        with tracer.installed():
            elapsed, records = run_pass(calls)
        tally.add(records)
        traced.append(elapsed)
        layers.append(layer_metrics(tracer))
    for name in COUNTS:
        if len({layer[name] for layer in layers}) != 1:
            print("count %s differs between passes: %s"
                  % (name, [layer[name] for layer in layers]), file=sys.stderr)
    out = {name: statistics.median(layer[name] for layer in layers)
           for name in layers[0]}
    out["trace.wall_s"] = statistics.median(traced)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out


def run_workload(name, seed, seconds, trace):
    import workloads

    setup_s = None if trace else measure_setup()
    workdir = BENCH / "_work" / ("%s-%d" % (name, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        calls = workloads.WORKLOADS[name](seed, str(workdir))
        tally = Tally(calls)
        # No warm-up: the package is imported by now, and the first pass
        # measured as fast as later ones on every workload.
        if trace:
            from spans import LAYER_UNITS, TRACE_UNITS

            values = traced_passes(calls, tally, seconds)
            units = dict(LAYER_UNITS, **TRACE_UNITS)
        else:
            times = timed_passes(calls, tally, seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {"wall_s": statistics.median(times), "setup_s": setup_s,
                      "peak_rss_mb": peak_mb}
            units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        attempted, failed, correct = tally.verdict()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }


def run_all(args):
    """Each workload in its own process; metric names get a workload prefix."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=True)
        sys.stderr.write(done.stderr)
        part = json.loads(done.stdout.strip().splitlines()[-1])
        print(name, json.dumps(part))
        result["correct"] = result["correct"] and part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        for key, metric in part["metrics"].items():
            result["metrics"]["%s/%s" % (name, key)] = metric
    return result


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        import_package()
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
