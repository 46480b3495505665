"""The README's examples run against the current API.

Each example is taken from one of the README's ``python`` code blocks
(the library quickstart, and the custom problem that builds a
``ChainProblem``) and executed as written, so a change of a signature
that the README does not follow fails here.
"""

from pathlib import Path
import re

import numpy as np

from tvadmm import MeanFilterSpec, Penalty, SolverConfig, mean_filter
from tvadmm.cli import generate_piecewise_data

README = Path(__file__).resolve().parent.parent / "README.md"


def run_example(marker):
    # Executes the one README python block that contains marker.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    matches = [block for block in blocks if marker in block]
    assert len(matches) == 1, "expected one %s example in README.md" % marker
    namespace = {}
    exec(compile(matches[0], str(README), "exec"), namespace)
    return namespace


def test_library_quickstart_runs(tmp_path, monkeypatch, capsys):
    data, _, _ = generate_piecewise_data(63)
    np.savetxt(tmp_path / "series.csv", data, delimiter=",")
    monkeypatch.chdir(tmp_path)
    namespace = run_example("tvadmm.mean_filter(")
    assert namespace["report"].converged
    assert capsys.readouterr().out.startswith("True")


def test_chain_problem_example_runs(capsys):
    namespace = run_example("ChainProblem(")
    report = namespace["report"]
    assert report.converged
    assert capsys.readouterr().out.startswith("True")
    # The example's costs are the scalar mean filter's, so both solves
    # agree up to the stopping tolerance.
    y, lam = namespace["y"], namespace["lam"]
    estimates, _ = mean_filter(y, MeanFilterSpec(lam=lam, penalty=Penalty.ELEMENTWISE),
                               SolverConfig(rho=lam))
    assert np.abs(report.x_star - estimates).max() < 1e-2
