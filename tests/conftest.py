"""Shared random-instance generators for the test suite."""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np

try:
    import ultraheat  # noqa: F401
except ImportError:  # running from a checkout without an install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ultraheat import (
    Dag,
    Dendrogram,
    DendrogramNode,
    KernelSpec,
    Bullet,
    PAdicCell,
    TopologyFamily,
    graph_distances,
    subdominant_ultrametric,
)
from ultraheat.multitopo import first_primes

# The family file of the benchmark generator's
# low_branching_family(3, 12, 3), written out so that the tests do not
# depend on the generator: its index has p = 3 and m = 3, and level m + 2
# has 108 cells.
LOW_BRANCHING_FAMILY = {
    "vertices": [f"v{i:02d}" for i in range(12)],
    "topologies": [
        {"edges": [["v03", "v06"], ["v06", "v11"]]},
        {"edges": [["v00", "v01"], ["v01", "v06"], ["v02", "v11"], ["v03", "v05"], ["v03", "v08"]]},
        {"edges": [["v00", "v10"], ["v01", "v04"], ["v06", "v09"], ["v07", "v11"]]},
    ],
    "primes": [2, 3, 5],
}


def enumerate_cells(assign, balls, n):
    """Every level-n cell of the balls, ball by ball in digit order, with its
    vertex label (None for filler) and ball ordinal: one PAdicCell each,
    built from the balls' digits alone, as an oracle for ``CellDomain``."""
    p = assign.p
    cells, labels, blocks = [], [], []
    for k, ball in enumerate(balls):
        for suffix in itertools.product(range(p), repeat=n - ball.level):
            cell = PAdicCell(p, ball.digits + suffix)
            cells.append(cell)
            labels.append(assign.vertex_of(cell))
            blocks.append(k)
    return cells, labels, blocks


def domain_cells(dom):
    """The cells of a domain's blocks and their vertex labels, by
    ``enumerate_cells``."""
    cells, labels, _ = enumerate_cells(dom.assignment, dom.balls, dom.level)
    return cells, labels


def dense_table(cross, own):
    """The dense table of a disc block table: cross[a, b] between discs
    a != b, own[a] on disc a."""
    K, rows, cols = np.shape(own)
    table = np.repeat(np.repeat(np.asarray(cross, dtype=np.float64), rows, axis=0), cols, axis=1)
    for a in range(K):
        table[a * rows:(a + 1) * rows, a * cols:(a + 1) * cols] = own[a]
    return table


def random_partition(rng, items, k, balanced=False):
    """Split items into k non-empty groups, order-randomised.

    Ragged cuts are rejected when one group would swallow more than 60%
    of the parent (falling back to near-equal sizes), which bounds the
    tree depth and with it the dynamic range of the jump rates.
    """
    items = list(items)
    rng.shuffle(items)
    n = len(items)
    sizes = None
    if not balanced:
        for _ in range(20):
            cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False))
            trial = [b - a for a, b in zip([0] + list(cuts), list(cuts) + [n])]
            if max(trial) <= max(0.6 * n, 1.0):
                sizes = trial
                break
    if sizes is None:
        base, rem = divmod(n, k)
        sizes = [base + (1 if i < rem else 0) for i in range(k)]
        rng.shuffle(sizes)
    groups = []
    prev = 0
    for s in sizes:
        groups.append(items[prev : prev + s])
        prev += s
    return groups


def random_dendrogram(rng, n_leaves, max_children=4, label_prefix="v") -> Dendrogram:
    """Random hierarchy; radii shared per depth, all within one decade."""
    labels = [f"{label_prefix}{i:03d}" for i in range(n_leaves)]

    def build(members, depth):
        if len(members) == 1:
            return DendrogramNode.leaf(members[0]), 0
        k = int(rng.integers(2, min(max_children, len(members)) + 1))
        children = []
        height = 0
        for group in random_partition(rng, members, k, balanced=depth >= 6):
            child, h = build(group, depth + 1)
            height = max(height, h)
            children.append(child)
        return DendrogramNode(-1.0, tuple(children)), height + 1

    root, depth = build(labels, 0)
    while True:
        radii = np.sort(rng.uniform(0.4, 4.0, size=max(depth, 1)))[::-1]
        if np.all(np.diff(radii) < 0) or depth <= 1:
            break

    def set_radii(node, d):
        if node.is_leaf:
            node.radius = 0.0
            return
        node.radius = float(radii[d])
        for c in node.children:
            set_radii(c, d + 1)

    set_radii(root, 0)
    return Dendrogram(root)


def random_dag(rng, n, density=0.2, label_prefix="v") -> Dag:
    labels = [f"{label_prefix}{i:03d}" for i in range(n)]
    order = list(labels)
    rng.shuffle(order)
    mask = np.triu(rng.random((n, n)) < density, k=1)
    edges = frozenset((order[i], order[j]) for i, j in np.argwhere(mask))
    return Dag(tuple(labels), edges)


def random_family(rng, max_vertices=50, max_topologies=5) -> TopologyFamily:
    n = int(rng.integers(2, max_vertices + 1))
    n_topo = int(rng.integers(1, max_topologies + 1))
    labels = tuple(f"v{i:03d}" for i in range(n))
    dags = []
    for _ in range(n_topo):
        order = list(labels)
        rng.shuffle(order)
        mask = np.triu(rng.random((n, n)) < 0.1, k=1)
        dags.append(frozenset((order[i], order[j]) for i, j in np.argwhere(mask)))
    return TopologyFamily(labels, tuple(dags), first_primes(n_topo))


def random_connected_weights(rng, labels):
    """Random connected weighted graph: spanning tree plus extras."""
    labels = list(labels)
    weights = {}
    for i in range(1, len(labels)):
        j = int(rng.integers(0, i))
        weights[frozenset((labels[i], labels[j]))] = float(rng.uniform(0.5, 3.0))
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            e = frozenset((labels[i], labels[j]))
            if e not in weights and rng.random() < 0.3:
                weights[e] = float(rng.uniform(0.5, 3.0))
    return weights


def random_metric(rng, n, label_prefix="v"):
    labels = tuple(f"{label_prefix}{i:03d}" for i in range(n))
    pts = rng.uniform(0.0, 1.0, size=(n, 3))
    vals = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(vals, 0.0)
    from ultraheat import DistanceMatrix

    return DistanceMatrix(labels, vals)


def specs_from_weights(rng, labels, weights, alpha=1.0):
    """KernelSpec triple (adjacency, graph distance, ultrametric) of a graph."""
    d_e = graph_distances(labels, weights)
    delta = subdominant_ultrametric(d_e)
    n = len(d_e.labels)
    pos = {l: i for i, l in enumerate(d_e.labels)}
    kappa = np.zeros((n, n))
    wmax = max(weights.values())
    for e, wt in weights.items():
        u, v = tuple(e)
        kappa[pos[u], pos[v]] = kappa[pos[v], pos[u]] = wt / (wmax * 1.25)
    return (
        KernelSpec(Bullet.ADJACENCY, alpha, d_e.labels, kappa),
        KernelSpec(Bullet.GRAPH_DISTANCE, alpha, d_e.labels, d_e.values),
        KernelSpec(Bullet.ULTRAMETRIC, alpha, d_e.labels, delta.values),
    )
