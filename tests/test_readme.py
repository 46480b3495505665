"""The README's custom-problem example runs against the current API.

The example is taken from the README's ``python`` code block that builds
a ``ChainProblem`` and executed as written, so a change of the engine's
signatures that the README does not follow fails here.
"""

from pathlib import Path
import re

import numpy as np

from tvadmm import MeanFilterSpec, Penalty, SolverConfig, mean_filter

README = Path(__file__).resolve().parent.parent / "README.md"


def chain_problem_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    matches = [block for block in blocks if "ChainProblem(" in block]
    assert len(matches) == 1, "expected one ChainProblem example in README.md"
    return matches[0]


def test_chain_problem_example_runs(capsys):
    namespace = {}
    exec(compile(chain_problem_example(), str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.converged
    assert capsys.readouterr().out.startswith("True")
    # The example's costs are the scalar mean filter's, so both solves
    # agree up to the stopping tolerance.
    y, lam = namespace["y"], namespace["lam"]
    estimates, _ = mean_filter(y, MeanFilterSpec(lam=lam, penalty=Penalty.ELEMENTWISE),
                               SolverConfig(rho=lam))
    assert np.abs(report.x_star - estimates).max() < 1e-2
