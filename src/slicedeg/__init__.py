"""slicedeg: exact degree analysis of slice-distinguishing polynomials over F_p.

Modules:
  linalg         exact F_p rank oracle (rank, nullspace, membership)
  cube           weight slices as bitmasks, multilinear polynomials, slice
                 statistics
  closure        evaluation matrices of uint64 point arrays, vanishing
                 ideals, degree closures, ideal sampling
  distinguish    exact and robust minimum slice-distinguishing degree
  spectra        symmetric-function spectra, periods, decompositions
  constructions  coin, junta and hyperplane constructions with exact error
                 sums, and bound checkers
  experiments    named, seeded, reproducible experiment harness
"""

from .config import Caps, CapExceeded, DEFAULT_CAPS
from .linalg import PrimeField, RankOracle
from .cube import (MultilinearPoly, SliceStats, multilinearize_product,
                   slice_stats)

__version__ = "0.1.0"
