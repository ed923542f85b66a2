"""Dense symmetric eigensolves in a measure-weighted inner product."""

from __future__ import annotations

import numpy as np

from .errors import NotSelfAdjoint


def symmetrised(L: np.ndarray, masses: np.ndarray):
    """S = D L D^(-1) with D = diag(sqrt(masses)), made exactly symmetric,
    and the diagonal of D.

    Raises ``ValueError`` when a mass is not positive and
    ``NotSelfAdjoint`` when S is not symmetric to 1e-8 of max(1, max|S|),
    that is when L is not self-adjoint w.r.t. diag(masses).
    """
    masses = np.asarray(masses, dtype=float)
    if np.any(masses <= 0):
        raise ValueError("masses must be positive")
    d = np.sqrt(masses)
    S = L * d[:, None] / d[None, :]
    out = np.subtract(S, S.T)  # one buffer for the defect, then for the result
    asym = np.max(np.abs(out, out=out))
    scale = max(1.0, float(S.max()), float(-S.min()))
    if asym > 1e-8 * scale:
        raise NotSelfAdjoint(f"operator is not symmetric under the given measure (defect {asym:g})")
    out = np.add(S, S.T, out=out)
    out *= 0.5
    return out, d


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
