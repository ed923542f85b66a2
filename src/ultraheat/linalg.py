"""Dense symmetric eigensolves in a measure-weighted inner product."""

from __future__ import annotations

import numpy as np

from .errors import NotSelfAdjoint


def symmetrised_rows(rows: np.ndarray, cols: np.ndarray, d_rows: np.ndarray, d: np.ndarray):
    """Some rows of S = D L D^(-1) (D = diag(d)) and the same rows of S^T,
    scaled in place from those rows of L and L's matching columns
    transposed (``cols``), with their entries ``d_rows`` of d.
    (S + S^T) / 2 is S made exactly symmetric."""
    rows *= d_rows[:, None]
    rows /= d[None, :]
    cols *= d[None, :]
    cols /= d_rows[:, None]
    return rows, cols


def symmetry_defect(S: np.ndarray, St: np.ndarray) -> tuple[float, float]:
    """The largest |S - S^T| and the largest |S| over the rows of
    ``symmetrised_rows``; a NaN in S makes both NaN."""
    return float(np.max(np.abs(S - St))), max(float(S.max()), float(-S.min()))


def check_symmetric(asym: float, largest: float) -> None:
    """NotSelfAdjoint when the defect of S exceeds 1e-8 of max(1, max|S|),
    that is when L is not self-adjoint w.r.t. diag(d^2); a NaN passes."""
    if asym > 1e-8 * max(1.0, largest):
        raise NotSelfAdjoint(f"operator is not symmetric under the given measure (defect {asym:g})")


def positive_roots(masses: np.ndarray) -> np.ndarray:
    """The square roots of the masses; ValueError unless every mass is positive."""
    masses = np.asarray(masses, dtype=float)
    if np.any(masses <= 0):
        raise ValueError("masses must be positive")
    return np.sqrt(masses)


def symmetrised(L: np.ndarray, masses: np.ndarray):
    """S = D L D^(-1) with D = diag(sqrt(masses)), made exactly symmetric,
    and the diagonal of D.

    Raises ``ValueError`` when a mass is not positive and
    ``NotSelfAdjoint`` when S is not symmetric to 1e-8 of max(1, max|S|),
    that is when L is not self-adjoint w.r.t. diag(masses).
    """
    d = positive_roots(masses)
    S, St = symmetrised_rows(np.array(L, dtype=float), np.array(L.T, dtype=float), d, d)
    check_symmetric(*symmetry_defect(S, St))
    S += St
    S *= 0.5
    return S, d


def weighted_symmetric_eig(L: np.ndarray, masses: np.ndarray):
    """Eigenpairs of an operator self-adjoint w.r.t. diag(masses).

    Works on the symmetrisation S = D^(1/2) L D^(-1/2) of ``symmetrised``,
    whose ``eigh`` columns are orthonormal; eigenvectors are mapped back so
    that columns are orthonormal in the weighted inner product.  Signs are
    fixed so the output is reproducible.

    Returns (eigenvalues ascending, eigenvector columns).  Raises
    ``NotSelfAdjoint`` when the symmetrisation is not symmetric and
    ``ValueError`` when a mass is not positive.
    """
    S, d = symmetrised(L, masses)
    evals, Q = np.linalg.eigh(S)

    # make each column's entry of largest magnitude positive (first one on ties)
    pivots = np.argmax(np.abs(Q), axis=0)
    Q[:, Q[pivots, np.arange(Q.shape[1])] < 0] *= -1.0
    vectors = Q / d[:, None]
    return evals, vectors
