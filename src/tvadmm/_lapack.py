"""The six LAPACK routines the package calls, loaded without ``scipy.linalg``.

The package needs ``dpbtrf`` and ``dpbtrs`` (the mean filter's banded
partition factor and solve), ``dpotrf`` and ``dpotrs`` (small Cholesky
factor and solve) and ``dpttrf`` and ``dpttrs`` (the projection's
tridiagonal LDL^T). scipy ships them in one compiled extension,
``scipy/linalg/_flapack``, but ``import scipy.linalg`` also imports the
rest of ``scipy.linalg`` and, through ``scipy._lib._util``,
numpy.testing, f2py and array_api_compat.
After ``import numpy, scipy`` that took another 0.19-0.28 s and 311
modules (543 against 232) in fresh Python 3.11 interpreters on 2 CPUs
with scipy 1.17, most of the import time of ``tvadmm`` itself.

So this module imports ``scipy`` (cheap; it does scipy's own platform
set-up) and loads the extension file straight from scipy's ``linalg``
folder; ``scipy/linalg/__init__.py`` never runs. The extension is loaded
as ``tvadmm._flapack``: Python records a single-phase extension module
in ``sys.modules`` under the name it is loaded as, and that name stays
inside the package. ``_flapack`` has been scipy's name for this
extension since scipy 1.8, below the declared ``scipy>=1.10``. If the
file cannot be loaded, or lacks one of the six routines, the routines
come from ``scipy.linalg.lapack``, which exports the same extension's
functions, so both paths run the same Fortran code.
"""

import importlib.machinery
import importlib.util
import os

import scipy


def _load_flapack():
    """Load scipy's compiled LAPACK extension from its file."""
    path = os.path.join(os.path.dirname(scipy.__file__), "linalg",
                        "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    spec = importlib.util.spec_from_file_location("tvadmm._flapack", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_ROUTINES = ("dpbtrf", "dpbtrs", "dpotrf", "dpotrs", "dpttrf", "dpttrs")

try:
    _source = _load_flapack()
except (ImportError, OSError):
    _source = None
if _source is None or not all(hasattr(_source, name) for name in _ROUTINES):
    from scipy.linalg import lapack as _source

dpbtrf = _source.dpbtrf
dpbtrs = _source.dpbtrs
dpotrf = _source.dpotrf
dpotrs = _source.dpotrs
dpttrf = _source.dpttrf
dpttrs = _source.dpttrs
