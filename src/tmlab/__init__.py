"""Bivariate tensor means for even-order Hermitian tensors.

Library layout:

- :mod:`tmlab.core` -- Hermitian tensor algebra on the square unfolding
  (Einstein product, spectral calculus, gauge norms, Loewner comparison).
- :mod:`tmlab.functions` -- scalar connection functions with class tags,
  lifts, transposes, numeric inversion, power-scaling certificates.
- :mod:`tmlab.means` -- PD means, the lifted-generator recursion, and the
  PSD extension through the range-compatible quotient.
- :mod:`tmlab.bounds` -- Kantorovich constants, dyadic spectral-ratio
  factors, trace tail bounds, Ky Fan statistics.
- :mod:`tmlab.lie_trotter` -- tensor exp/log and the product-formula limit.
- :mod:`tmlab.data_processing` -- fusion and linear-transform inequalities.
- :mod:`tmlab.harness` -- seeded ensembles and Monte Carlo verification
  suites; :mod:`tmlab.cli` exposes them as the ``tmlab`` command.
"""

# Each module's ``__all__`` is the package's list of its public names.
from .core import *
from .functions import *
from .means import *
from .bounds import *
from .lie_trotter import *
from .data_processing import *

__version__ = "0.1.0"
