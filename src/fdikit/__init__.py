"""Level-wise toolkit for linear stationary fuzzy difference inclusions.

Fuzzy quantities are finite stacks of nested alpha-cut intervals; the
induced interval dynamics are analyzed with sufficient stability
criteria, and for non-negative systems the exact per-level solution
envelope is computed, with Monte Carlo oracles for validation.

Each layer module declares its public names in its own ``__all__``; this
package re-exports all five.
"""

from . import fuzzy_num, metrics, interval_linalg, stability, fdi_sim
from .fuzzy_num import *
from .metrics import *
from .interval_linalg import *
from .stability import *
from .fdi_sim import *

__version__ = "0.1.0"

__all__ = sorted(fuzzy_num.__all__ + metrics.__all__ + interval_linalg.__all__
                 + stability.__all__ + fdi_sim.__all__)
