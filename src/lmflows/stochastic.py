"""Validation helpers for row-stochastic matrices."""

import numpy as np

from .errors import NonStochasticError

ROW_SUM_TOL = 1e-9
_NEG_TOL = 1e-12


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a float square 2-d array (copy), raising ValueError otherwise."""
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def ensure_row_stochastic(m) -> np.ndarray:
    """Validate that every row of ``m`` is a probability distribution.

    Returns the validated float copy. Raises NonStochasticError naming the
    first offending row.
    """
    a = as_square_matrix(m)
    nonfinite = ~np.isfinite(a).all(axis=1)
    lowest = a.min(axis=1, initial=np.inf)
    with np.errstate(invalid="ignore", over="ignore"):  # rows with inf are named as non-finite
        sums = a.sum(axis=1)
    bad = nonfinite | (lowest < -_NEG_TOL) | (np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.any():
        # Within the first bad row: non-finite, then negative, then the sum.
        i = int(bad.argmax())
        if nonfinite[i]:
            raise NonStochasticError(i, "contains non-finite entries")
        if lowest[i] < -_NEG_TOL:
            raise NonStochasticError(i, f"negative entry {lowest[i]!r}")
        raise NonStochasticError(i, f"row sums to {float(sums[i])!r}, expected 1")
    return a
