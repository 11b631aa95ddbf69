"""Exact-arithmetic Rankin-Selberg integrals for explicit cuspidal types.

The package builds explicit supercuspidal types for GL_n over Q_p (depth-zero
GL_2/GL_3 and the minimal ramified GL_2 family), evaluates their Whittaker
test vectors exactly over cyclotomic fields, computes the local
Rankin-Selberg integral as a rational function in X, and verifies the
resulting Euler factors, including reduction modulo ell.
"""

from .errors import (
    RSExactError,
    NotMonomialMultiple,
    NotExpandable,
    NotIntegralAtEll,
    TooLarge,
    NotRegular,
    DepthExceeded,
    EvenResidualCharacteristic,
    NondegeneracyFailure,
    FamilyMismatch,
    EllEqualsP,
    NonBanal,
)

from .cyclo import CycNumber, parse_cyc
from .simpletypes import make_type, l_factor
from .integral import (
    RSPair,
    rankin_selberg_I,
    oracle_check,
    verify_main_theorem,
)
from .lmodular import is_banal, require_banal, verify_corollary

__version__ = "0.1.0"
