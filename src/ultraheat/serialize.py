"""File schemas: topology families, weighted graphs, DAGs, and index files.

All JSON writers emit canonical JSON (sorted keys, fixed separators, sorted
collections, trailing newline), so identical inputs produce identical
bytes.  Index files are version 3: vertices, distance-weighted edges, the
prime p and the disc depth m; the dendrogram, its embedding and every
matrix are rebuilt on read.

Which writer writes which file:

* ``graph_text`` the graph file of ``encode`` and ``index_text`` the index
  file of ``index``, straight from the graph's or the index's
  ``EdgeColumns`` sorted by their (lo, hi) ranks, each distinct index
  weight formatted once; ``family_text`` the family file of ``decode``,
  from each topology's rank pairs.  None makes a JSON object per edge.
  ``graph_to_obj``, ``family_to_obj`` and ``index_to_obj`` are their
  schemas as JSON values; the tests check that each writer's text is
  ``canonical_dumps`` of its schema's value.
* ``canonical_dumps`` (through ``write_canonical``) the ``bounds`` file and
  every JSON summary.
* ``matrix_export`` the heat table and ``spectrum_export`` the spectrum
  table.  ``write_text`` writes the three edge files' texts, the sort's
  order and the convergence table.

Which reader fills which columns:

* ``graph_from_obj`` fills a graph's ``EdgeColumns``: the vertices in str
  order, ``lo`` and ``hi`` (intp, lo < hi) and the weights as a tuple of
  Python ints, in file order.
* ``index_from_obj`` fills the index's ``EdgeColumns`` the same way, with
  the weights as one float64 array, and rebuilds the tree from them.
* ``family_from_obj`` and ``dag_from_obj`` check their vertex and edge
  lists as wholes; they return edge sets, and the DAG's weights a map.

Each reader gathers a field of every record in one pass, maps the ends
to ranks through one dict and checks the field as a whole (types, listed
ends, self-loops; repeats by sorting the rank pairs).  Only where a check
fails are the records read one at a time, and the first failing one in
file order raises, with the message it always had.  A JSON number is
read as a float by ``_json_float``: an int past the float range reads as
infinite, as json reads 1e400, and each reader's range check refuses it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import re
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from .errors import DisconnectedGraph, OutputError, ParseError
from .multitopo import Dag, EdgeColumns, TopologyFamily, WeightedMultiGraph, first_primes
from .padic import DiscAssignment, embed
from .ultraindex import graph_dendrogram


def canonical_dumps(obj) -> str:
    """The canonical text of a JSON value: exactly
    ``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``.

    With an indent, json leaves its C encoder for a pure-Python one, so
    the text is written here instead, in one pass into one list of pieces.
    Leaves are formatted as json formats them; a value json cannot write
    (a set, bytes, np.int64, a dict key that is no str, int, float, bool
    or None) raises TypeError, as json does.  A container that holds
    itself raises RecursionError, where json raises ValueError.
    """
    pieces = []
    _put(obj, "\n", pieces.append)
    pieces.append("\n")
    return "".join(pieces)


_INFINITY = float("inf")


def _float_text(x) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


_LEAF_TEXT = {  # a leaf's formatter, by its exact type
    str: encode_basestring,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _leaf_text(obj):
    """The text of a leaf, also of a subclass of str, int or float (such
    as np.float64 or an IntEnum), or None when obj is no leaf."""
    text_of = _LEAF_TEXT.get(type(obj))
    if text_of is not None:
        return text_of(obj)
    for base in (str, int, float):
        if isinstance(obj, base):
            return _LEAF_TEXT[base](obj)
    return None


def _key_text(key) -> str:
    """The str json writes for a dict key: the key itself, or the text of
    an int, float, bool or None."""
    text = key if isinstance(key, str) else _leaf_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return text


def _put(obj, newline: str, append, leaf_of=_LEAF_TEXT.get) -> None:
    """Append the pieces of obj's text; newline is a line break and the
    indent of the line obj starts on.  Items whose exact type is a leaf
    type are written in the loop, everything else through a call."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            append("[]")
            return
        inner = newline + "  "
        put, sep = "[" + inner, "," + inner
        for item in obj:
            text_of = leaf_of(type(item))
            if text_of is not None:
                append(put + text_of(item))
            else:
                append(put)
                _put(item, inner, append)
            put = sep
        append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            append("{}")
            return
        inner = newline + "  "
        put, sep = "{" + inner, "," + inner
        for key, item in sorted(obj.items()):
            head = put + encode_basestring(key if type(key) is str else _key_text(key)) + ": "
            text_of = leaf_of(type(item))
            if text_of is not None:
                append(head + text_of(item))
            else:
                append(head)
                _put(item, inner, append)
            put = sep
        append(newline + "}")
    else:  # no type is both a container and a leaf, so the order of the checks is free
        text = _leaf_text(obj)
        if text is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        append(text)


def _json_list(item_texts: list, depth: int, brackets: str = "[]") -> str:
    """The text ``canonical_dumps`` writes for a list whose items have these
    texts (a nested item's text already indented for its depth), when the
    list starts at indent 2·depth: ``[]`` when it has no item.  With the
    brackets "{}" and items of the form ``"key": value`` in key order, the
    text of an object."""
    if not item_texts:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(item_texts) + inner[:-2] + brackets[1]


def _ranked(vertices) -> tuple[dict, list]:
    """Each vertex's rank in ``str`` order (the dict lists them in that
    order), and the JSON text of each rank's ``str``; the edge writers need
    the vertices distinct as text, as every reader checks them to be."""
    order = sorted(vertices, key=str)
    return {v: i for i, v in enumerate(order)}, _names(order)


def _names(labels) -> list:
    """The JSON text of each label's ``str``."""
    return [encode_basestring(str(v)) for v in labels]


def _sorted_pairs(names: list, first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, list, list]:
    """Rank pairs sorted by (first, second): the position of each sorted
    pair, and the texts (``names`` by rank) of the first and of the second
    ranks of the sorted pairs, picked out as references."""
    order = np.lexsort((second, first))
    texts = np.array(names, dtype=object)
    return order, texts[first[order]].tolist(), texts[second[order]].tolist()


def write_canonical(path, obj) -> str:
    return write_text(path, canonical_dumps(obj))


def write_text(path, text: str) -> str:
    """Write the text as UTF-8 bytes, with no newline translation, and
    return the sha256 of the bytes written."""
    return _write_hashed(path, [text.encode("utf-8")])


def _write_hashed(path, chunks) -> str:
    """Write the byte chunks in order and return the sha256 of the file:
    every artifact is written and hashed here, from the same bytes.  The
    64 kB buffer gathers a heat table's rows (one chunk each, about 11 kB
    at 540 cells) into fewer writes."""
    digest = hashlib.sha256()
    try:
        with open(path, "wb", buffering=1 << 16) as out:
            for chunk in chunks:
                out.write(chunk)
                digest.update(chunk)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    return digest.hexdigest()


def load_json(path):
    """The JSON value of a UTF-8 file.  A string that holds a lone
    surrogate (an unpaired ``\\ud800``-``\\udfff`` escape) is a ParseError
    here, as no output could encode it as UTF-8."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        obj = json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ParseError(f"cannot read {path}: {exc}") from exc
    bad = _lone_surrogate(obj) if "\\" in text else None  # only an escape makes one
    if bad is not None:
        raise ParseError(f"cannot read {path}: the string {bad!r} holds a lone surrogate")
    return obj


_SURROGATE = re.compile("[\ud800-\udfff]")


def _lone_surrogate(obj):
    """The first string of a decoded JSON value, key or item, that holds a
    surrogate, or None; the decoder joins every escaped pair, so any
    surrogate left is a lone one."""
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            if _SURROGATE.search(item):
                return item
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item)
            stack.extend(item.values())
    return None


# --- topology families ------------------------------------------------------


def family_to_obj(family: TopologyFamily) -> dict:
    """The family file as a JSON value: the schema ``family_text`` writes."""
    return {
        "vertices": sorted(map(str, family.vertex_ids)),
        "topologies": [
            {"edges": sorted([list(map(str, e)) for e in dag])} for dag in family.dags
        ],
        "primes": list(family.primes),
    }


def family_text(family: TopologyFamily) -> str:
    """``canonical_dumps(family_to_obj(family))``, written from the edges'
    rank pairs with no object per edge."""
    rank, names = _ranked(family.vertex_ids)
    record = _json_list(["%s", "%s"], 4)
    topologies = []
    for dag in family.dags:
        ends = np.fromiter(map(rank.__getitem__, itertools.chain.from_iterable(dag)),
                           dtype=np.intp, count=2 * len(dag)).reshape(-1, 2)
        _, first, second = _sorted_pairs(names, ends[:, 0], ends[:, 1])
        edges = _json_list([record % pair for pair in zip(first, second)], 3)
        topologies.append(_json_list(['"edges": ' + edges], 2, "{}"))
    return _json_list(['"primes": ' + _json_list([*map(int.__repr__, family.primes)], 1),
                       '"topologies": ' + _json_list(topologies, 1),
                       '"vertices": ' + _json_list(names, 1)], 0, "{}") + "\n"


def family_from_obj(obj) -> TopologyFamily:
    """Read a family file, checked before any encode work: a ParseError
    unless its vertices and edges pass ``_check_vertices_and_edges`` and
    the primes, if given, are one int per topology."""
    try:
        vertices, topologies, primes = obj["vertices"], obj["topologies"], obj.get("primes") or []
        if type(topologies) is not list:
            raise TypeError("topologies must be a list")
        edge_lists = [topo["edges"] for topo in topologies]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed family file: {exc}") from exc
    if type(primes) is not list:
        raise ParseError("malformed family file: primes must be a list")
    _check_vertices_and_edges("family", vertices, [(f" of topology {i}", edges)
                                                   for i, edges in enumerate(edge_lists)])
    if primes and len(primes) != len(edge_lists):
        raise ParseError(f"malformed family file: {len(primes)} primes for "
                         f"{len(edge_lists)} topologies")
    if any(type(p) is not int for p in primes):
        raise ParseError(f"malformed family file: the primes {primes!r} are not all integers")
    dags = [frozenset(map(tuple, edges)) for edges in edge_lists]
    return TopologyFamily(vertices, dags, primes or first_primes(len(dags)))


def _check_vertices_and_edges(kind: str, vertices, edge_lists) -> None:
    """A ParseError unless the vertices are a list of JSON keys (str,
    number, bool or null) distinct both as values and as text (the graph
    and order files name a vertex by its ``str``), and every edge of each
    (place, edges) pair is a list of two listed vertices.  Each check runs
    on a whole list; only where one fails is the first failing item
    sought."""
    if not all(type(x) is list for x in (vertices, *(edges for _, edges in edge_lists))):
        raise ParseError(f"malformed {kind} file: vertices and edges must be lists")
    if not set(map(type, vertices)) <= _LEAF_TYPES:
        v = next(v for v in vertices if type(v) not in _LEAF_TYPES)
        raise ParseError(f"malformed {kind} file: the vertex {v!r} is not a JSON key")
    type_of = {v: type(v) for v in vertices}  # an edge end is a vertex of the same type
    if not len(type_of) == len(set(map(str, vertices))) == len(vertices):
        raise ParseError(f"malformed {kind} file: a vertex is listed twice, as a value or as text")
    for place, edges in edge_lists:
        if not _listed_pairs(edges, type_of):
            edge = next(edge for edge in edges if not _listed_pairs([edge], type_of))
            raise ParseError(f"malformed {kind} file: the edge {edge!r}{place} "
                             "is not a pair of listed vertices")


_LEAF_TYPES = frozenset(_LEAF_TEXT)


def _listed_pairs(edges: list, type_of: dict) -> bool:
    """Whether every edge is a list of two vertices that ``type_of`` lists,
    each of the type listed for it."""
    if not (set(map(type, edges)) <= {list} and set(map(len, edges)) <= {2}):
        return False
    ends = list(itertools.chain.from_iterable(edges))
    types = list(map(type, ends))
    return set(types) <= _LEAF_TYPES and all(map(operator.is_, map(type_of.get, ends), types))


# --- weighted graphs -----------------------------------------------------------


def graph_to_obj(g: WeightedMultiGraph, primes=None) -> dict:
    """The graph file as a JSON value: the schema ``graph_text`` writes."""
    edges = []
    for e, wt in g.w.items():
        u, v = sorted(e, key=str)
        edges.append({"ends": [str(u), str(v)], "w": int(wt)})
    edges.sort(key=lambda rec: rec["ends"])
    obj = {
        "vertices": sorted(map(str, g.vertices)),
        "edges": edges,
        "d": {str(v): list(g.d[v]) for v in g.vertices},
    }
    if primes is not None:
        obj["primes"] = list(primes)
    return obj


def graph_text(g: WeightedMultiGraph, primes=None) -> str:
    """``canonical_dumps(graph_to_obj(g, primes))``, written from the edge
    columns with no object per edge.  The weights stay Python ints: a
    product of large primes passes 2^63."""
    w = g.w
    names = _names(w.labels)
    dims = [name + ": " + _json_list([*map(int.__repr__, g.d[v])], 2)
            for v, name in zip(w.labels, names)]
    order, lo, hi = _sorted_pairs(names, w.lo, w.hi)
    weights = w.weights
    record = _json_list(['"ends": ' + _json_list(["%s", "%s"], 3), '"w": %d'], 2, "{}")
    fields = ['"d": ' + _json_list(dims, 1, "{}"),
              '"edges": ' + _json_list([record % (a, b, weights[k])
                                        for k, a, b in zip(order.tolist(), lo, hi)], 1)]
    if primes is not None:
        fields.append('"primes": ' + _json_list([*map(int.__repr__, primes)], 1))
    fields.append('"vertices": ' + _json_list(names, 1))
    return _json_list(fields, 0, "{}") + "\n"


def graph_from_obj(obj) -> tuple[WeightedMultiGraph, tuple]:
    """Read a graph file and its stored primes (empty when it stores
    none): a ParseError unless the vertices are distinct and each has a
    dimension vector of ints in ``d``, every edge joins two distinct
    listed vertices with an int weight of at least 1 and is listed once,
    in either orientation, and the vectors share one length, that of the
    primes when the file stores any.  The edges are read into
    ``EdgeColumns`` field by field (``_graph_columns``)."""
    try:
        vertices, records, dims = obj["vertices"], obj["edges"], obj["d"]
        primes = obj.get("primes") or []
        if not (type(vertices) is type(records) is type(primes) is list and type(dims) is dict):
            raise TypeError("vertices, edges and primes must be lists and d an object")
        d = {v: dims[v] for v in vertices}  # d's keys are strings, so the vertices are too
        labels = tuple(sorted(d))
        lo, hi, weights = _graph_columns(records, {v: i for i, v in enumerate(labels)})
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed graph file: {exc}") from exc
    if len(d) != len(vertices):
        raise ParseError("malformed graph file: a vertex is listed twice")
    if _repeats(lo, hi, len(labels)):
        raise ParseError("malformed graph file: an edge is listed twice")
    if any(type(p) is not int for p in primes):
        raise ParseError(f"malformed graph file: the primes {primes!r} are not all integers")
    if not all(type(vec) is list and set(map(type, vec)) <= {int} for vec in d.values()):
        raise ParseError("malformed graph file: a dimension vector is not a list of integers")
    if len({len(vec) for vec in d.values()} | ({len(primes)} if primes else set())) > 1:
        raise ParseError("malformed graph file: the dimension vectors and the primes "
                         "differ in length")
    dims = {v: tuple(vec) for v, vec in d.items()}
    return (WeightedMultiGraph(tuple(vertices), EdgeColumns(labels, lo, hi, weights), dims),
            tuple(primes))


def _graph_columns(records: list, rank: dict):
    """(lo, hi, weights) of a graph file's edge records in file order: the
    str ranks of their ends (lo < hi) and their weights as a tuple of
    Python ints, each field gathered in one pass and checked as a whole.
    Where a check fails, the first failing record raises, as
    ``_graph_record`` reads it."""
    try:
        ends = list(map(operator.itemgetter("ends"), records))
        weights = tuple(map(operator.itemgetter("w"), records))
    except (KeyError, TypeError):
        ends = None
    if ends is not None and set(map(type, ends)) <= {list} and set(map(len, ends)) <= {2}:
        pairs = _rank_pairs(*_fields(ends, 2), rank)
        if pairs is not None and set(map(type, weights)) <= {int} and min(weights, default=1) >= 1:
            return (*pairs, weights)
    _first_bad(records, _graph_record, rank)


def _graph_record(rec, rank: dict) -> None:
    """Raise the error of a graph file's edge record, if it has one."""
    ends, weight = rec["ends"], rec["w"]
    if not (type(ends) is list and len(ends) == 2 and type(ends[0]) is str
            and type(ends[1]) is str and ends[0] != ends[1]
            and ends[0] in rank and ends[1] in rank):
        raise ParseError(f"malformed graph file: the ends {ends!r} are not two "
                         "distinct listed vertices")
    if type(weight) is not int or weight < 1:
        raise ParseError(f"malformed graph file: the weight {weight!r} of {ends!r} "
                         "is not an integer at least 1")


def _fields(records: list, count: int) -> list:
    """The first ``count`` items of every record, as one list per place:
    ``zip(*records)`` with no object made per record."""
    return [list(map(operator.itemgetter(k), records)) for k in range(count)]


def _rank_pairs(first: list, second: list, rank: dict):
    """(lo, hi) intp arrays of the ranks of two columns of edge ends, or
    None unless every end is a str that ``rank`` lists and no edge joins a
    vertex to itself."""
    if not set(map(type, first)) | set(map(type, second)) <= {str}:
        return None
    a, b = (np.fromiter(map(rank.get, ends, itertools.repeat(-1)), dtype=np.intp, count=len(ends))
            for ends in (first, second))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    if len(lo) and (lo.min() < 0 or (lo == hi).any()):
        return None
    return lo, hi


def _first_bad(records: list, check, rank: dict) -> None:
    """Raise the error of the first of the records that ``check`` refuses;
    called once a whole-column check has failed, so one does."""
    for record in records:
        check(record, rank)
    raise AssertionError("a column check failed where no record does")


def _repeats(lo: np.ndarray, hi: np.ndarray, n: int) -> bool:
    """Whether a (lo, hi) rank pair is listed twice."""
    keys = np.sort(lo * n + hi)
    return bool((keys[1:] == keys[:-1]).any())


def _json_float(x) -> float:
    """A JSON number as a float: an int past the float range reads as the
    infinity of its sign, as json reads 1e400, so that the reader's own
    check of the weight's range refuses it."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _json_floats(values) -> np.ndarray:
    """``_json_float`` of each JSON number, as a float64 array; one number
    at a time only where an int is past the float range."""
    try:
        return np.array(values, dtype=float).reshape(-1)
    except OverflowError:
        return np.array([_json_float(x) for x in values], dtype=float)


# --- DAG files -------------------------------------------------------------------


def dag_from_obj(obj) -> tuple[Dag, dict]:
    """Read a DAG file and its edge weights: a ParseError unless it lists
    a vertex, ``Dag`` and then ``_check_vertices_and_edges`` accept its
    vertices and edges, and every weight is a JSON number under a key
    "u|v" that names two distinct vertices of it by their ``str``, once in
    either order.  The weights are read as floats (``_json_float``: an int
    past the float range is infinite); their range is checked where they
    are used (BadWeight)."""
    try:
        dag = Dag(obj["vertices"], obj["edges"])
        _check_vertices_and_edges("dag", obj["vertices"], [("", obj["edges"])])
        weight_obj = obj.get("weights") or {}
        if type(weight_obj) is not dict:
            raise TypeError("weights must be an object")
        by_text = {str(v): v for v in dag.vertices}  # one vertex per text, as checked
        weights = {}
        for key, val in weight_obj.items():
            u, _, v = key.partition("|")
            if u == v or u not in by_text or v not in by_text:
                raise ParseError(f"malformed dag file: the weight key {key!r} does not name "
                                 "two distinct vertices")
            e = frozenset((by_text[u], by_text[v]))
            if e in weights:
                raise ParseError(f"malformed dag file: the weight key {key!r} names an edge twice")
            if type(val) not in (int, float):
                raise ParseError(f"malformed dag file: the weight {val!r} of {key!r} "
                                 "is not a JSON number")
            weights[e] = _json_float(val)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed dag file: {exc}") from exc
    if not dag.vertices:
        raise ParseError("malformed dag file: it lists no vertex")
    return dag, weights


# --- index files ----------------------------------------------------------------------

INDEX_VERSION = 3


def index_to_obj(assign: DiscAssignment, weights) -> dict:
    """The index as its vertices, its distance-weighted edges, its prime p
    and, as a check, its disc depth m; weights maps frozenset({u, v}) to
    the edge's distance weight.  This is the schema ``index_text`` writes,
    floats by ``repr``, so they read back exactly."""
    return {
        "version": INDEX_VERSION,
        "vertices": list(map(str, assign.labels)),
        "edges": sorted([*sorted(map(str, e)), float(wt)] for e, wt in weights.items()),
        "p": assign.p,
        "m": assign.m,
    }


def index_text(assign: DiscAssignment, weights) -> str:
    """``canonical_dumps(index_to_obj(assign, weights))``, written from the
    edge columns with no list per edge, each distinct weight formatted
    once."""
    w = EdgeColumns.from_mapping(assign.labels, weights)
    names = _names(w.labels)
    order, lo, hi = _sorted_pairs(names, w.lo, w.hi)
    values = _float_texts(np.asarray(w.weights, dtype=float)[order], _float_text).tolist()
    record = _json_list(["%s", "%s", "%s"], 2)
    return _json_list(['"edges": ' + _json_list([record % item for item in zip(lo, hi, values)], 1),
                       '"m": ' + int.__repr__(assign.m),
                       '"p": ' + int.__repr__(assign.p),
                       f'"version": {INDEX_VERSION}',
                       '"vertices": ' + _json_list(names, 1)], 0, "{}") + "\n"


def index_from_obj(obj):
    """Rebuild (assignment, distance weights) from an index file.

    The dendrogram is rebuilt from the stored edges and embedded at the
    stored p.  A ParseError unless the vertices are distinct strings and
    every edge is a list [u, v, weight] of two distinct listed vertices
    and a JSON number, listed once; a p that is not a prime at least the
    branching factor, or a stored m that differs from the embedding's, is
    one too.  The weights come back as ``EdgeColumns`` of float64, read
    field by field (``_index_columns``); an int weight past the float
    range reads as infinite, which the tree's weight check refuses.
    """
    if not isinstance(obj, dict) or obj.get("version") != INDEX_VERSION:
        raise ParseError(
            f"index file is not version {INDEX_VERSION}: re-run `ultraheat index` on its graph"
        )
    try:
        vertices, edges, p, m = obj["vertices"], obj["edges"], obj["p"], obj["m"]
        if not (type(vertices) is list and set(map(type, vertices)) <= {str}):
            raise ParseError("index vertices must be a list of strings")
        labels = tuple(sorted(vertices))
        rank = {v: i for i, v in enumerate(labels)}
        if len(rank) != len(vertices):
            raise ParseError("index vertices list a vertex twice")
        if type(edges) is not list:
            raise ParseError("index edges must be a list")
        lo, hi, values = _index_columns(edges, rank)
        if _repeats(lo, hi, len(labels)):
            raise ParseError("index edges name an edge twice")
        if type(p) is not int or type(m) is not int:
            raise ParseError(f"index p and m must be integers, got {p!r} and {m!r}")
        weights = EdgeColumns(labels, lo, hi, values)
        assign = embed(graph_dendrogram(labels, weights), p)
    except (KeyError, TypeError, ValueError, DisconnectedGraph) as exc:
        raise ParseError(f"malformed index file: {exc}") from exc
    if tuple(vertices) != assign.labels:
        raise ParseError("index vertices are not sorted by str")
    if m != assign.m:
        raise ParseError(f"stored m={m} differs from the dendrogram's embedding (m={assign.m})")
    return assign, weights


def _index_columns(edges: list, rank: dict):
    """(lo, hi, weights) of an index file's edges in file order: the str
    ranks of their ends (lo < hi) and their weights as float64
    (``_json_floats``), each field gathered in one pass and checked as a
    whole.  Where a check fails, the first failing edge raises, as
    ``_index_edge`` reads it."""
    if set(map(type, edges)) <= {list} and set(map(len, edges)) <= {3}:
        first, second, values = _fields(edges, 3)
        pairs = _rank_pairs(first, second, rank)
        if pairs is not None and set(map(type, values)) <= {int, float}:
            return (*pairs, _json_floats(values))
    _first_bad(edges, _index_edge, rank)


def _index_edge(edge, rank: dict) -> None:
    """Raise the error of an index file's edge, if it has one."""
    if not (type(edge) is list and len(edge) == 3 and edge[0] != edge[1]
            and type(edge[0]) is type(edge[1]) is str
            and edge[0] in rank and edge[1] in rank):
        raise ParseError(f"index edge {edge!r} is not [u, v, weight] with u and v "
                         "two distinct listed vertices")
    u, v, wt = edge
    if type(wt) not in (int, float):
        raise ParseError(f"index weight {wt!r} of the edge {u!r}-{v!r} is not a JSON number")


# --- text matrices ---------------------------------------------------------------------


def matrix_export(path, cross, own, header: dict) -> str:
    """Write the line ``# {header}`` (its JSON with sorted keys), then one
    line per row of a table given in disc block form, its entries as
    ``%.17g`` separated by one space; return the sha256 of the file's bytes.

    The table has K discs of r rows and c columns each: between two
    distinct discs a and b every entry is cross[a, b] (a K x K array whose
    diagonal is not read), and own[a] (a (K, r, c) array) is disc a's
    diagonal block.  A dense matrix is the case K = 1.  The file is written
    one disc at a time: its K cross values and its own block are formatted
    once per distinct bit pattern, and each of its rows is the text of the
    discs before it, the row of its own block and the text of the discs
    after it, so no text larger than a disc's rows is held at once.
    """
    cross = np.asarray(cross, dtype=np.float64)
    own = np.asarray(own, dtype=np.float64)
    if own.ndim != 3 or cross.shape != (len(own),) * 2:
        raise ValueError(f"expected a K x K cross array and a (K, r, c) own array, "
                         f"got shapes {cross.shape} and {own.shape}")
    head = ("# " + json.dumps(header, sort_keys=True) + "\n").encode("utf-8")
    return _write_hashed(path, itertools.chain([head], _disc_lines(cross, own)))


def _disc_lines(cross: np.ndarray, own: np.ndarray):
    """The text lines of ``matrix_export``'s table, disc by disc."""
    K, rows, cols = own.shape
    for a in range(K):
        texts = _float_texts(np.concatenate([cross[a], own[a].ravel()]), b"%.17g".__mod__)
        by_disc = texts[:K].tolist()
        left = b"".join([(x + b" ") * cols for x in by_disc[:a]])
        right = b"".join([(b" " + x) * cols for x in by_disc[a + 1:]]) + b"\n"
        for row in texts[K:].reshape(rows, cols).tolist():
            yield left + b" ".join(row) + right


def _float_texts(values, text_of):
    """``text_of(x)`` of each float64 x of a 1-d sequence, as an object
    array, formatted once per distinct bit pattern."""
    bits, inverse = np.unique(np.asarray(values, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    texts = np.array([*map(text_of, bits.view(np.float64).tolist())], dtype=object)
    return texts[inverse.reshape(-1)]


def spectrum_export(path, basis) -> str:
    """One line per eigenpair record of the basis (its functions are not
    read)."""
    records = basis.records
    lams = _float_texts([r.lam for r in records], "%.17g".__mod__).tolist()
    residuals = _float_texts([r.residual for r in records], "%.17g".__mod__).tolist()
    lines = ["kind\tsupport\tindex\tlambda\tresidual"]
    lines += [f"{r.kind}\t{r.support}\t{r.index}\t{lam}\t{residual}"
              for r, lam, residual in zip(records, lams, residuals)]
    return write_text(path, "\n".join(lines) + "\n")
