"""File schemas: topology families, weighted graphs, DAGs, and index files.

All writers emit canonical JSON (sorted keys, fixed separators, sorted
collections, trailing newline), so identical inputs produce identical
bytes.  Index files are version 3: vertices, distance-weighted edges, the
prime p and the disc depth m; the dendrogram, its embedding and every
matrix are rebuilt on read.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import DisconnectedGraph, ParseError
from .multitopo import TopologyFamily, WeightedMultiGraph
from .padic import DiscAssignment, embed
from .toposort import Dag
from .ultraindex import graph_dendrogram


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_canonical(path, obj) -> str:
    text = canonical_dumps(obj)
    Path(path).write_text(text, encoding="utf-8")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ParseError(f"cannot read {path}: {exc}") from exc


# --- topology families ------------------------------------------------------


def family_to_obj(family: TopologyFamily) -> dict:
    return {
        "vertices": sorted(map(str, family.vertex_ids)),
        "topologies": [
            {"edges": sorted([list(map(str, e)) for e in dag])} for dag in family.dags
        ],
        "primes": list(family.primes),
    }


def family_from_obj(obj) -> TopologyFamily:
    try:
        vertices = tuple(obj["vertices"])
        topologies = obj["topologies"]
        dags = tuple(
            frozenset(tuple(edge) for edge in topo["edges"]) for topo in topologies
        )
        primes = tuple(obj.get("primes") or ())
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed family file: {exc}") from exc
    if not primes:
        from .multitopo import first_primes

        primes = first_primes(len(dags))
    return TopologyFamily(vertices, dags, primes)


# --- weighted graphs -----------------------------------------------------------


def graph_to_obj(g: WeightedMultiGraph, primes=None) -> dict:
    edges = []
    for e in g.edges:
        u, v = sorted(e, key=str)
        edges.append({"ends": [str(u), str(v)], "w": int(g.w[e])})
    edges.sort(key=lambda rec: rec["ends"])
    obj = {
        "vertices": sorted(map(str, g.vertices)),
        "edges": edges,
        "d": {str(v): list(g.d[v]) for v in g.vertices},
    }
    if primes is not None:
        obj["primes"] = list(primes)
    return obj


def graph_from_obj(obj) -> tuple[WeightedMultiGraph, tuple]:
    try:
        vertices = tuple(obj["vertices"])
        w = {}
        for rec in obj["edges"]:
            u, v = rec["ends"]
            w[frozenset((u, v))] = int(rec["w"])
        d = {v: tuple(obj["d"][v]) for v in vertices}
        primes = tuple(obj.get("primes") or ())
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed graph file: {exc}") from exc
    g = WeightedMultiGraph(vertices, frozenset(w), w, d)
    return g, primes


# --- DAG files -------------------------------------------------------------------


def dag_from_obj(obj) -> tuple[Dag, dict]:
    try:
        vertices = tuple(obj["vertices"])
        edges = frozenset(tuple(e) for e in obj["edges"])
        weights = {}
        for key, val in (obj.get("weights") or {}).items():
            u, _, v = key.partition("|")
            weights[frozenset((u, v))] = float(val)
        dag = Dag(vertices, edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed dag file: {exc}") from exc
    if not vertices:
        raise ParseError("malformed dag file: it lists no vertex")
    return dag, weights


# --- index files ----------------------------------------------------------------------

INDEX_VERSION = 3


def index_to_obj(assign: DiscAssignment, weights) -> dict:
    """The index as its vertices, its distance-weighted edges, its prime p
    and, as a check, its disc depth m; weights maps frozenset({u, v}) to
    the edge's distance weight.  Floats are written by ``repr``, so they
    read back exactly."""
    return {
        "version": INDEX_VERSION,
        "vertices": list(map(str, assign.labels)),
        "edges": sorted([*sorted(map(str, e)), float(wt)] for e, wt in weights.items()),
        "p": assign.p,
        "m": assign.m,
    }


def index_from_obj(obj):
    """Rebuild (assignment, distance weights) from an index file.

    The dendrogram is rebuilt from the stored edges and embedded at the
    stored p; a p that is not a prime at least the branching factor, or a
    stored m that differs from the embedding's, is a ParseError.
    """
    if not isinstance(obj, dict) or obj.get("version") != INDEX_VERSION:
        raise ParseError(
            f"index file is not version {INDEX_VERSION}: re-run `ultraheat index` on its graph"
        )
    try:
        labels = tuple(obj["vertices"])
        weights = {frozenset((u, v)): float(wt) for u, v, wt in obj["edges"]}
        p, m = obj["p"], obj["m"]
        if type(p) is not int or type(m) is not int:
            raise ParseError(f"index p and m must be integers, got {p!r} and {m!r}")
        assign = embed(graph_dendrogram(labels, weights), p)
    except (KeyError, TypeError, ValueError, DisconnectedGraph) as exc:
        raise ParseError(f"malformed index file: {exc}") from exc
    if labels != assign.labels:
        raise ParseError("index vertices are not distinct and sorted")
    if m != assign.m:
        raise ParseError(f"stored m={m} differs from the dendrogram's embedding (m={assign.m})")
    return assign, weights


# --- text matrices ---------------------------------------------------------------------


def matrix_export(path, matrix: np.ndarray, header: dict) -> str:
    """Write a header line and the matrix rows, each entry as ``%.17g``.

    Heat kernels repeat few values, so each distinct bit pattern is
    formatted once, and every row gathers its texts by a sorted lookup
    (row by row, so no index array the size of the matrix is kept).
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {matrix.shape}")
    bits = matrix.view(np.int64)
    distinct = np.unique(bits)
    texts = np.array(["%.17g" % x for x in distinct.view(np.float64).tolist()], dtype=object)
    lines = ["# " + json.dumps(header, sort_keys=True)]
    lines.extend(" ".join(texts[np.searchsorted(distinct, row)].tolist()) for row in bits)
    text = "\n".join(lines) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def spectrum_export(path, basis) -> str:
    """One line per eigenpair record of the basis (its functions are not
    read)."""
    lines = ["kind\tsupport\tindex\tlambda\tresidual"]
    for r in basis.records:
        lines.append(f"{r.kind}\t{r.support}\t{r.index}\t{r.lam:.17g}\t{r.residual:.17g}")
    text = "\n".join(lines) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
