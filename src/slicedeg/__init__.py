"""slicedeg: exact degree analysis of slice-distinguishing polynomials over F_p.

Modules:
  linalg         exact F_p rank oracle (rank, nullspace, membership)
  cube           Boolean cube, multilinear polynomials, slice statistics
  closure        vanishing ideals, degree closures, ideal sampling
  distinguish    exact and robust minimum slice-distinguishing degree
  spectra        symmetric-function spectra, periods, decompositions
  constructions  coin, junta and hyperplane constructions with exact error
                 sums, and bound checkers
  experiments    named, seeded, reproducible experiment harness
"""

from .config import Caps, CapExceeded, DEFAULT_CAPS
from .linalg import PrimeField, RankOracle
from .cube import (CubePoint, MultilinearPoly, SliceStats,
                   elementary_symmetric, enumerate_slice,
                   multilinearize_product, slice_stats,
                   symmetric_value_table)

__version__ = "0.1.0"
