"""Seeded input generators for the benchmark.

Each generator takes its seed as an argument and returns plain data (the
family / DAG file objects of the ultraheat schemas), so the program under
test receives only the generated inputs.  No generator imports ultraheat.

* ``random_family``: a multi-topology family of random DAGs over one vertex
  set, each DAG with a given edge density.  Its index is very wide
  (p close to n), which keeps it away from every operator stage.
* ``low_branching_family``: a three-topology family whose index has
  branching at most 3 at every merge (p = 3 by construction) and exactly
  ``depth`` distinct merge heights (m = depth).
* ``random_dag``: criterion-3-style random DAGs with a given density.
"""

from __future__ import annotations

import numpy as np

# The squarefree products of the primes {2, 3, 5}, ascending.  A merge at
# depth k of the low-branching tree joins its children with edges of the
# k-th weight: larger weights are shorter under the index's 1/log(w + 1)
# distance, so deeper merges sit at strictly smaller radii.
SQUAREFREE_235 = (2, 3, 5, 6, 10, 15, 30)
PRIMES_235 = (2, 3, 5)
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def labels(n: int, prefix: str = "v") -> list[str]:
    width = len(str(max(n - 1, 0)))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def random_family(seed: int, n: int, topologies: int = 5, density: float = 0.01) -> dict:
    """Family file object: ``topologies`` random DAGs over n vertices.

    Each DAG orients the pairs drawn with probability ``density`` along its
    own random vertex order, so it is acyclic.  Vertices left isolated by
    the union are linked into the first DAG, keeping the encoded graph
    connected (the index needs a connected graph).
    """
    if not 1 <= topologies <= len(FIRST_PRIMES):
        raise ValueError(f"topologies must lie in 1..{len(FIRST_PRIMES)}")
    rng = np.random.default_rng(seed)
    vs = labels(n)
    topos = []
    for _ in range(topologies):
        order = rng.permutation(n)
        mask = np.triu(rng.random((n, n)) < density, k=1)
        topos.append({(vs[order[i]], vs[order[j]]) for i, j in np.argwhere(mask)})
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pos = {v: i for i, v in enumerate(vs)}
    for edges in topos:
        for u, v in edges:
            parent[find(pos[u])] = find(pos[v])
    roots = sorted({find(i) for i in range(n)})
    # Each added edge joins two different components, so it closes no cycle.
    for a, b in zip(roots, roots[1:]):
        topos[0].add((vs[a], vs[b]))
    return {
        "vertices": vs,
        "topologies": [{"edges": sorted([list(e) for e in edges])} for edges in topos],
        "primes": list(FIRST_PRIMES[:topologies]),
    }


def low_branching_family(seed: int, n: int, depth: int = 7) -> dict:
    """Three-topology family whose index has p = 3 and m = ``depth``.

    Builds a random rooted tree with exactly n leaves: the root has three
    children, a spine reaches down to depth ``depth``, and random leaves
    above that depth then split into 2 or 3 children.  The children of a
    merge at depth k are chained by edges of weight SQUAREFREE_235[k]
    between random leaves of each child, so the encoded graph is a tree
    whose subdominant ultrametric reproduces the merges exactly.  An edge
    of weight w belongs to every topology whose prime divides w, oriented
    from the smaller to the larger label.

    The tree's shape is drawn from (n, depth) alone, because the operator
    stages' work (truncated-domain sizes, eigenvalue multiplicities)
    depends on it; the seed places the labels on the leaves and picks the
    linking vertices, which changes every distance but not the load.
    """
    if not 1 <= depth <= len(SQUAREFREE_235):
        raise ValueError(f"depth must lie in 1..{len(SQUAREFREE_235)}")
    if n < depth + 2:
        raise ValueError(f"n={n} leaves cannot reach depth {depth} with a 3-way root")
    shape_rng = np.random.default_rng([n, depth])
    # node: [depth, children]; leaves have children == []
    root = [0, []]
    leaves: list = []

    def split(node, k: int) -> list:
        node[1] = [[node[0] + 1, []] for _ in range(k)]
        return node[1]

    spine = split(root, 3)
    count = 3
    node = spine[0]
    while node[0] < depth:
        kids = split(node, 2)
        count += 1
        node = kids[0]
    _collect_leaves(root, leaves)
    while count < n:
        open_ = [leaf for leaf in leaves if leaf[0] < depth]
        leaf = open_[int(shape_rng.integers(len(open_)))]
        k = 3 if (n - count >= 2 and shape_rng.random() < 0.5) else 2
        split(leaf, k)
        count += k - 1
        leaves = []
        _collect_leaves(root, leaves)
    rng = np.random.default_rng(seed)
    vs = labels(n)
    for leaf, label in zip(leaves, rng.permutation(vs)):
        leaf.append(str(label))

    edges: list[tuple[str, str, int]] = []

    def members(node) -> list[str]:
        if not node[1]:
            return [node[2]]
        return [m for c in node[1] for m in members(c)]

    def link(node):
        if not node[1]:
            return
        reps = []
        for child in node[1]:
            ms = members(child)
            reps.append(ms[int(rng.integers(len(ms)))])
            link(child)
        w = SQUAREFREE_235[node[0]]
        for a, b in zip(reps, reps[1:]):
            edges.append((min(a, b), max(a, b), w))

    link(root)
    topos = [
        sorted([u, v] for u, v, w in edges if w % prime == 0) for prime in PRIMES_235
    ]
    return {
        "vertices": vs,
        "topologies": [{"edges": e} for e in topos],
        "primes": list(PRIMES_235),
    }


def _collect_leaves(node, out: list) -> None:
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur[1]:
            stack.extend(reversed(cur[1]))
        else:
            out.append(cur)


def random_dag(seed: int, n: int, density: float, prefix: str = "v") -> dict:
    """DAG file object: pairs drawn with probability ``density`` and oriented
    along a random vertex order (the acceptance suite's criterion-3 style)."""
    rng = np.random.default_rng(seed)
    vs = labels(n, prefix)
    order = rng.permutation(n)
    mask = np.triu(rng.random((n, n)) < density, k=1)
    edges = sorted([vs[order[i]], vs[order[j]]] for i, j in np.argwhere(mask))
    return {"vertices": vs, "edges": edges}

