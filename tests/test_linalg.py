"""Measure-weighted symmetric eigensolves: orthonormal columns and reproducible signs."""

import numpy as np
import pytest

from ultraheat import Bullet, KernelSpec, discretize, embed, generator
from ultraheat.linalg import weighted_symmetric_eig

from conftest import random_dendrogram


@pytest.mark.parametrize("measure", ["haar", "nu"])
def test_eigenvectors_have_a_positive_largest_entry(measure):
    rng = np.random.default_rng(47)
    for _ in range(4):
        dend = random_dendrogram(rng, int(rng.integers(3, 7)), max_children=3)
        assign = embed(dend)
        delta = dend.delta_matrix()
        spec = KernelSpec(Bullet.ULTRAMETRIC, 1.0, delta.labels, delta.values)
        gen = generator(spec, discretize(assign, assign.m + 2), measure)
        evals, vectors = weighted_symmetric_eig(gen.matrix, gen.measure)

        # the signs are fixed on the orthonormal columns of the symmetrisation
        Q = vectors * np.sqrt(gen.measure)[:, None]
        cols = np.arange(Q.shape[1])
        assert np.all(Q[np.argmax(np.abs(Q), axis=0), cols] > 0)
        if measure == "haar":  # uniform masses: the returned columns themselves
            assert np.all(vectors[np.argmax(np.abs(vectors), axis=0), cols] > 0)
        assert np.allclose(Q.T @ Q, np.eye(len(evals)), atol=1e-10)
        residual = gen.matrix @ vectors - vectors * evals[None, :]
        assert np.max(np.abs(residual)) < 1e-9 * max(1.0, np.max(np.abs(evals)))
