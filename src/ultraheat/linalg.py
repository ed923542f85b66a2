"""Dense symmetric eigensolves in a measure-weighted inner product."""

from __future__ import annotations

import numpy as np

from .errors import NotSelfAdjoint


def weighted_symmetric_eig(L: np.ndarray, masses: np.ndarray):
    """Eigenpairs of an operator self-adjoint w.r.t. diag(masses).

    Works on the symmetrisation S = D^(1/2) L D^(-1/2), whose ``eigh``
    columns are orthonormal; eigenvectors are mapped back so that columns
    are orthonormal in the weighted inner product.  Signs are fixed so the
    output is reproducible.

    Returns (eigenvalues ascending, eigenvector columns).  Raises
    ``NotSelfAdjoint`` when the symmetrisation is not symmetric and
    ``ValueError`` when a mass is not positive.
    """
    masses = np.asarray(masses, dtype=float)
    if np.any(masses <= 0):
        raise ValueError("masses must be positive")
    d = np.sqrt(masses)
    S = L * d[:, None] / d[None, :]
    asym = np.max(np.abs(S - S.T))
    scale = max(1.0, float(np.max(np.abs(S))))
    if asym > 1e-8 * scale:
        raise NotSelfAdjoint(f"operator is not symmetric under the given measure (defect {asym:g})")
    S = 0.5 * (S + S.T)
    evals, Q = np.linalg.eigh(S)

    # make each column's entry of largest magnitude positive (first one on ties)
    pivots = np.argmax(np.abs(Q), axis=0)
    Q[:, Q[pivots, np.arange(Q.shape[1])] < 0] *= -1.0
    vectors = Q / d[:, None]
    return evals, vectors
