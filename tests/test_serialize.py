"""File round trips (families, graphs) and text artifacts: the heat-kernel
matrix format."""

import enum
import hashlib
import itertools
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ultraheat import (Bullet, KernelSpec, TopologyFamily, decode, discretize, embed, encode,
                       graph_dendrogram)
from ultraheat.heat import heat_kernel, heat_table
from ultraheat.multitopo import first_primes, is_prime
from ultraheat.serialize import (canonical_dumps, family_from_obj, family_text, family_to_obj,
                                 graph_from_obj, graph_text, graph_to_obj, index_text,
                                 index_to_obj, matrix_export, spectrum_export)
from ultraheat.spectra import EigenRecord
from ultraheat.ultraindex import default_distance_weights, graph_distances

from conftest import LOW_BRANCHING_FAMILY, dense_table, random_family


def reread(obj):
    return json.loads(canonical_dumps(obj))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_family_file_round_trip(seed):
    """A family written and read back is the same family, up to the order
    of its vertices."""
    family = random_family(np.random.default_rng(seed), max_vertices=30)
    back = family_from_obj(reread(family_to_obj(family)))
    assert sorted(back.vertex_ids) == sorted(family.vertex_ids)
    assert back.dags == family.dags
    assert back.primes == family.primes


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_graph_file_round_trip(seed):
    """An encoded family's graph file reads back with the same vertices,
    weights, dimension vectors and primes, and decodes to the family."""
    family = random_family(np.random.default_rng(seed), max_vertices=30)
    graph = encode(family)
    back, primes = graph_from_obj(reread(graph_to_obj(graph, family.primes)))
    assert sorted(back.vertices) == sorted(graph.vertices)
    assert dict(back.w) == dict(graph.w)
    assert dict(back.d) == dict(graph.d)
    assert primes == family.primes
    decoded = decode(back, primes)
    assert sorted(decoded.vertex_ids) == sorted(family.vertex_ids)
    assert decoded.dags == family.dags and decoded.primes == family.primes


def json_text(obj) -> str:
    """The canonical text as the standard library writes it."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


# quote, backslash, control, DEL, line and paragraph separators, non-ASCII
# and astral characters, and whatever else hypothesis draws
TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\n\t\x7f\u2028\u2029é€😀'),
                         st.characters()), max_size=6)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**63, 2**200).flatmap(lambda k: st.sampled_from([k, -k])),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300, 0.1]),
    st.floats().map(np.float64),
    st.sampled_from(Level),
    TEXT,
)
# one key type per dict: numbers and bools compare with each other, not with str or None
NUMBER_KEYS = st.one_of(st.integers(), st.floats(), st.booleans(), st.sampled_from(Level))
JSON_VALUES = st.recursive(LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(TEXT, children, max_size=4),
    st.dictionaries(NUMBER_KEYS, children, max_size=4),
    st.dictionaries(st.none(), children, max_size=1),
), max_leaves=24)


@settings(max_examples=1000, deadline=None)
@given(value=JSON_VALUES)
def test_canonical_dumps_writes_the_text_of_json_dumps(value):
    """The canonical writer gives json.dumps's indent-2 text, with sorted
    keys and no ASCII escapes, for nested lists, tuples and dicts of every
    leaf json writes: NaN and the infinities, -0.0 and subnormals, big
    ints, bools, np.float64 and IntEnum, keys that are numbers, bools or
    None, and strings with characters json escapes or keeps."""
    assert canonical_dumps(value) == json_text(value)


@pytest.mark.parametrize("value", [
    {1, 2}, b"bytes", np.int64(3), np.bool_(True), [1, {2}], {"k": [b"x"]}, ({"k": np.int64(1)},),
    {(1, 2): 0}, {1: 0, "a": 1},
], ids=["set", "bytes", "int64", "bool_", "nested_set", "nested_bytes", "nested_int64",
        "tuple_key", "mixed_keys"])
def test_canonical_dumps_raises_type_error_where_json_does(value):
    """A set, bytes, np.int64 or np.bool_ anywhere in the value, a tuple key,
    or keys that do not sort together raise TypeError, in json and here."""
    with pytest.raises(TypeError):
        json_text(value)
    with pytest.raises(TypeError):
        canonical_dumps(value)


# the 20 largest primes below 2^62: an edge in two or more topologies
# weighs more than 2^63
LARGE_PRIMES = tuple(itertools.islice(filter(is_prime, range(2**62 - 1, 0, -2)), 20))


@st.composite
def families(draw):
    """A family over up to 8 labels, ints or strings from TEXT, distinct as
    text; one to three topologies with the first primes, or 20 with
    LARGE_PRIMES.  Each topology orients its pairs from the earlier label
    to the later one, or all the other way, so it is acyclic."""
    labels = draw(st.lists(st.one_of(st.integers(), TEXT), min_size=1, max_size=8, unique_by=str))
    primes = draw(st.one_of(st.integers(1, 3).map(first_primes), st.just(LARGE_PRIMES)))
    n = len(labels)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda ij: ij[0] < ij[1])
    dags = []
    for _ in primes:
        edges = draw(st.lists(pairs, max_size=10)) if n > 1 else []
        step = draw(st.sampled_from([1, -1]))
        dags.append(frozenset((labels[i], labels[j])[::step] for i, j in edges))
    return TopologyFamily(labels, dags, primes)


@settings(max_examples=150, deadline=None)
@given(family=families(), star=st.floats(5e-324, 1e300))
@example(family=TopologyFamily(("only",), (frozenset(),), (2,)), star=1.0)
@example(family=TopologyFamily((3, 1, 2), (frozenset({(3, 1), (1, 2)}), frozenset()), (2, 3)),
         star=0.1)
@example(family=TopologyFamily(("b", "a"), (frozenset({("a", "b")}),) * 20, LARGE_PRIMES),
         star=1.0)
def test_edge_writers_write_the_text_of_their_oracles(family, star):
    """graph_text, family_text and index_text write exactly the canonical
    text of graph_to_obj, family_to_obj and index_to_obj, which is the text
    of json.dumps: for int labels, labels json escapes or keeps (quote,
    backslash, control characters, U+2028, non-ASCII and astral), a
    topology with no edge, one vertex, weights past 2^63, and a graph with
    no primes.  The index joins the str-first vertex to every other one at
    the weight ``star`` where the graph has no edge, so that it is
    connected."""
    graph = encode(family)
    cases = [(family_text(family), family_to_obj(family)),
             (graph_text(graph, family.primes), graph_to_obj(graph, family.primes)),
             (graph_text(graph), graph_to_obj(graph))]
    first, *others = sorted(family.vertex_ids, key=str)
    weights = {frozenset((first, v)): star for v in others}
    weights.update((e, 1.0 / math.log(w + 1)) for e, w in graph.w.items())  # w may pass 2^1024
    assign = embed(graph_dendrogram(family.vertex_ids, weights))
    cases.append((index_text(assign, weights), index_to_obj(assign, weights)))
    for text, obj in cases:
        assert text == canonical_dumps(obj) == json_text(obj)


def reference_text(matrix, header_line):
    """Element-by-element formatting, the reference for the row formatter."""
    lines = [header_line]
    for row in np.asarray(matrix):
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def export_dense(path, matrix, header):
    """A dense matrix written as the block table of one disc."""
    return matrix_export(path, np.zeros((1, 1)), np.asarray(matrix)[None], header)


def test_matrix_export_matches_elementwise_formatting(tmp_path):
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, np.nan, np.inf, -np.inf,
               0.1, 1 / 3, 2.0**-1074 * 3, 1e-310, 123456789.0, 0.5]
    rng = np.random.default_rng(11)
    matrix = np.concatenate([np.array(special), rng.standard_normal(15) * 1e3]).reshape(6, 5)
    path = tmp_path / "kernel.txt"
    digest = export_dense(path, matrix, {"t": 0.5, "p": 3})
    text = path.read_text(encoding="utf-8")
    assert text == reference_text(matrix, '# {"p": 3, "t": 0.5}')
    assert digest == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert text.splitlines()[1].split(" ")[:3] == ["-0", "0", "4.9406564584124654e-324"]
    # three discs of two cells: the same text as the dense table they stand for
    cross, own = matrix.ravel()[:9].reshape(3, 3), matrix.ravel()[9:21].reshape(3, 2, 2)
    matrix_export(path, cross, own, {})
    assert path.read_text(encoding="utf-8") == reference_text(dense_table(cross, own), "# {}")


def row_format_text(matrix, header_line):
    """One %.17g format string per row, applied to the row's Python floats."""
    row_format = " ".join(["%.17g"] * matrix.shape[1])
    return "\n".join([header_line] + [row_format % tuple(row.tolist()) for row in matrix]) + "\n"


def test_matrix_export_formats_repeated_values_like_the_row_formatter(tmp_path):
    specials = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1 / 3, 2.5])
    rng = np.random.default_rng(13)
    # few distinct values, repeated in random places, as in a heat kernel
    matrix = specials[rng.integers(0, len(specials), size=(40, 30))]
    path = tmp_path / "kernel.txt"
    digest = export_dense(path, matrix, {"n": 4})
    text = path.read_text(encoding="utf-8")
    assert text == row_format_text(matrix, '# {"n": 4}')
    assert digest == hashlib.sha256(text.encode("utf-8")).hexdigest()
    tokens = set(" ".join(text.splitlines()[1:]).split())
    assert {"-0", "0", "nan", "inf", "-inf"} <= tokens
    # integer matrices are written as their float values
    export_dense(path, np.arange(6).reshape(2, 3), {})
    assert path.read_text(encoding="utf-8") == "# {}\n0 1 2\n3 4 5\n"


NAN_PAYLOAD = np.array([0x7FF8_0000_0000_0001, -0x0007_FFFF_FFFF_FFFF], dtype=np.int64).view(np.float64)
POOL = np.array([0.0, -0.0, np.nan, -np.nan, *NAN_PAYLOAD, np.inf, -np.inf, 5e-324, -1e-310,
                 1 / 3, 2.5])


@st.composite
def export_inputs(draw):
    """A block table of K discs of r x c entries from a few pool values
    (so that repeats, runs that cross a disc's edge and one-entry rows
    occur), as float64, float32, int or transposed views, and the float64
    dense table it stands for: any dense matrix at K = 1, blocks of two
    cells or more above it."""
    K = draw(st.integers(1, 4))
    if K == 1:
        rows, cols = draw(st.one_of(
            st.sampled_from([(0, 0), (0, 4), (4, 0), (1, 1), (1, 6), (6, 1)]),
            st.tuples(st.integers(1, 8), st.integers(1, 8)),
        ))
    else:
        rows, cols = draw(st.tuples(st.integers(2, 4), st.integers(2, 4)))
    kind = draw(st.sampled_from(["float64", "float32", "int", "transposed"]))
    if kind == "int":
        values = np.array(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)))
    else:
        values = POOL[draw(st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=4))]
    picks = draw(st.lists(st.integers(0, len(values) - 1), min_size=K * K + K * rows * cols,
                          max_size=K * K + K * rows * cols))
    picked = values[np.array(picks, dtype=int)]
    cross, own = picked[:K * K].reshape(K, K), picked[K * K:].reshape(K, rows, cols)
    if kind == "float32":
        cross, own = cross.astype(np.float32), own.astype(np.float32)
    if kind == "transposed":
        cross = np.ascontiguousarray(cross.T).T
        own = np.ascontiguousarray(own.transpose(2, 1, 0)).transpose(2, 1, 0)
    return cross, own, dense_table(cross.astype(np.float64), own.astype(np.float64))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=export_inputs())
def test_matrix_export_writes_the_row_formatter_bytes(tmp_path, inputs):
    """Whatever its shape, dtype or memory order, a block table is written
    as the bytes of the row formatter applied to the float64 dense table it
    stands for, whose diagonal cross values are not read, and the returned
    digest is that of the file."""
    cross, own, table = inputs
    path = tmp_path / "kernel.txt"
    digest = matrix_export(path, cross, own, {"n": 1})
    data = path.read_bytes()
    assert data == row_format_text(table, '# {"n": 1}').encode("utf-8")
    assert digest == hashlib.sha256(data).hexdigest()


def test_matrix_export_holds_less_than_the_text(tmp_path):
    """Writing a 324-cell heat table (12 discs of 27 cells) from the block
    form `heat_table` returns allocates, at its peak, less than the bytes
    of one disc's rows: the text is written row by row and disc by disc,
    never held whole.  The bytes are the row formatter's over `heat_kernel`."""
    graph = encode(family_from_obj(LOW_BRANCHING_FAMILY))
    weights = default_distance_weights(graph)
    assign = embed(graph_dendrogram(graph, weights))
    disc = discretize(assign, assign.m + 3)
    spec = KernelSpec(Bullet.GRAPH_DISTANCE, 1.0, assign.labels,
                      graph_distances(assign.labels, weights).values)
    (cross, own), _ = heat_table(spec, disc, 0.5)
    assert own.shape == (12, 27, 27)
    path = tmp_path / "kernel.txt"
    tracemalloc.start()
    try:
        matrix_export(path, cross, own, {"t": 0.5})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == row_format_text(heat_kernel(spec, disc, 0.5),
                                                '# {"t": 0.5}').encode("utf-8")
    assert peak < path.stat().st_size / 12


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(picks=st.lists(st.tuples(st.integers(0, len(POOL) - 1), st.integers(0, len(POOL) - 1),
                                st.booleans()), max_size=12))
def test_spectrum_export_writes_each_record_by_its_f_string(tmp_path, picks):
    """Each eigenvalue and residual is written as f"{x:.17g}" of the
    record's own value, Python float or np.float64, however often the
    value repeats: -0, NaN payloads, the infinities and subnormals too."""
    records = [EigenRecord("kozyrev", f"v{i}", i, POOL[a] if wrap else float(POOL[a]), float(POOL[b]))
               for i, (a, b, wrap) in enumerate(picks)]
    path = tmp_path / "spectrum.tsv"
    digest = spectrum_export(path, SimpleNamespace(records=records))
    expected = "".join([f"{r.kind}\t{r.support}\t{r.index}\t{r.lam:.17g}\t{r.residual:.17g}\n"
                        for r in records])
    data = path.read_bytes()
    assert data == ("kind\tsupport\tindex\tlambda\tresidual\n" + expected).encode("utf-8")
    assert digest == hashlib.sha256(data).hexdigest()
