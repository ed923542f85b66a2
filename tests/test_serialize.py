"""File round trips (families, graphs) and text artifacts: the heat-kernel
matrix format."""

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
from ultraheat.errors import ParseError
from ultraheat.heat import heat_kernel, heat_table
from ultraheat.multitopo import first_primes, is_prime
from ultraheat.operators import prefix_blocks
from ultraheat.serialize import (canonical_dumps, expand_heat, family_from_obj, family_text,
                                 family_to_obj, graph_from_obj, graph_text, graph_to_obj,
                                 index_text, index_to_obj, matrix_export, spectrum_export)
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


# quote, backslash, control, DEL, line and paragraph separators, non-ASCII
# and astral characters, and whatever else hypothesis draws
TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\n\t\x7f\u2028\u2029é€😀'),
                         st.characters()), max_size=6)


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
        assert text == json_text(obj)


def reference_text(matrix, header_line):
    """Element-by-element formatting, the reference for the row formatter;
    the rows may differ in length."""
    lines = [header_line]
    for row in matrix:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def export_and_expand(tmp_path, cross, levels, header):
    """Write a heat table's block file and expand it: the digests that
    `matrix_export` and `expand_heat` return and the two files' bytes."""
    block, dense = tmp_path / "kernel.txt", tmp_path / "dense.txt"
    digests = matrix_export(block, cross, levels, header), expand_heat(block, dense)
    return digests, block.read_bytes(), dense.read_bytes()


def test_matrix_export_matches_elementwise_formatting(tmp_path):
    """The block file is its header with K, m and s added and the cross and
    level tables formatted entry by entry; its expansion is the dense table
    those stand for, formatted entry by entry under the given header."""
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, np.nan, np.inf, -np.inf,
               0.1, 1 / 3, 2.0**-1074 * 3, 1e-310, 123456789.0, 0.5]
    rng = np.random.default_rng(11)
    values = np.concatenate([np.array(special), rng.standard_normal(15) * 1e3])
    # five discs of one cell: any dense matrix, its diagonal the levels
    cross, levels = values[:25].reshape(5, 5), values[25:].reshape(5, 1)
    (digest, expanded), block, dense = export_and_expand(tmp_path, cross, levels,
                                                         {"t": 0.5, "p": 3, "n": 4})
    assert block.decode("utf-8") == reference_text(
        [*cross, *levels], '# {"K": 5, "m": 4, "n": 4, "p": 3, "s": 1, "t": 0.5}')
    text = dense.decode("utf-8")
    assert text == reference_text(dense_table(cross, levels[:, :, None]), '# {"n": 4, "p": 3, "t": 0.5}')
    assert digest == hashlib.sha256(block).hexdigest() and expanded == hashlib.sha256(dense).hexdigest()
    assert block.decode("utf-8").splitlines()[1].split(" ")[:3] == ["-0", "0", "4.9406564584124654e-324"]
    assert text.splitlines()[1].split(" ")[1:3] == ["0", "4.9406564584124654e-324"]
    # three discs of two cells (p = 2, one level below the disc)
    cross, levels = values[:9].reshape(3, 3), values[9:15].reshape(3, 2)
    _, block, dense = export_and_expand(tmp_path, cross, levels, {"p": 2, "n": 3})
    assert block.decode("utf-8") == reference_text(
        [*cross, *levels], '# {"K": 3, "m": 2, "n": 3, "p": 2, "s": 2}')
    own = levels[:, [[1, 0], [0, 1]]]  # two cells share their digit with themselves only
    assert dense.decode("utf-8") == reference_text(dense_table(cross, own), '# {"n": 3, "p": 2}')


def row_format_text(matrix, header_line):
    """One %.17g format string per row, applied to the row's Python floats."""
    row_format = " ".join(["%.17g"] * matrix.shape[1])
    return "\n".join([header_line] + [row_format % tuple(row.tolist()) for row in matrix]) + "\n"


def test_matrix_export_formats_repeated_values_like_the_row_formatter(tmp_path):
    specials = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1 / 3, 2.5])
    rng = np.random.default_rng(13)
    # few distinct values, repeated in random places, as in a heat kernel
    cross, levels = (specials[rng.integers(0, len(specials), size=shape)] for shape in ((8, 8), (8, 3)))
    (digest, expanded), block, dense = export_and_expand(tmp_path, cross, levels, {"n": 4, "p": 2})
    text = dense.decode("utf-8")
    assert text == row_format_text(dense_table(cross, prefix_blocks(levels, 2)), '# {"n": 4, "p": 2}')
    assert digest == hashlib.sha256(block).hexdigest() and expanded == hashlib.sha256(dense).hexdigest()
    tokens = set(" ".join(text.splitlines()[1:]).split())
    assert {"-0", "0", "nan", "inf", "-inf"} <= tokens
    # integer tables are written as their float values
    _, block, dense = export_and_expand(tmp_path, np.arange(4).reshape(2, 2), np.array([[4], [5]]),
                                        {"n": 1, "p": 2})
    assert block == b'# {"K": 2, "m": 1, "n": 1, "p": 2, "s": 1}\n0 1\n2 3\n4\n5\n'
    assert dense == b'# {"n": 1, "p": 2}\n4 1\n2 5\n'


NAN_PAYLOAD = np.array([0x7FF8_0000_0000_0001, -0x0007_FFFF_FFFF_FFFF], dtype=np.int64).view(np.float64)
POOL = np.array([0.0, -0.0, np.nan, -np.nan, *NAN_PAYLOAD, np.inf, -np.inf, 5e-324, -1e-310,
                 1 / 3, 2.5])


@st.composite
def export_inputs(draw):
    """A heat table's block form, K discs of s = p^(levels - 1) cells, from
    a few pool values (so that repeats, runs that cross a disc's edge and
    one-cell discs occur), as float64, float32, int or transposed views, p
    and the float64 dense table it stands for."""
    K, p, width = draw(st.integers(1, 4)), draw(st.sampled_from([2, 3])), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["float64", "float32", "int", "transposed"]))
    if kind == "int":
        values = np.array(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)))
    else:
        values = POOL[draw(st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=4))]
    picks = draw(st.lists(st.integers(0, len(values) - 1), min_size=K * (K + width),
                          max_size=K * (K + width)))
    picked = values[np.array(picks, dtype=int)]
    cross, levels = picked[:K * K].reshape(K, K), picked[K * K:].reshape(K, width)
    if kind == "float32":
        cross, levels = cross.astype(np.float32), levels.astype(np.float32)
    if kind == "transposed":
        cross, levels = np.ascontiguousarray(cross.T).T, np.ascontiguousarray(levels.T).T
    table = dense_table(cross.astype(np.float64), prefix_blocks(levels.astype(np.float64), p))
    return cross, levels, p, table


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=export_inputs())
def test_matrix_export_writes_the_row_formatter_bytes(tmp_path, inputs):
    """Whatever its shape, dtype or memory order, a block table expands to
    the bytes of the row formatter applied to the float64 dense table it
    stands for, whose diagonal cross values are not read, and the returned
    digests are those of the files."""
    cross, levels, p, table = inputs
    (digest, expanded), block, dense = export_and_expand(tmp_path, cross, levels, {"n": 3, "p": p})
    assert dense == row_format_text(table, f'# {{"n": 3, "p": {p}}}').encode("utf-8")
    assert digest == hashlib.sha256(block).hexdigest() and expanded == hashlib.sha256(dense).hexdigest()


def test_matrix_export_holds_less_than_the_text(tmp_path):
    """Expanding a 324-cell heat table (12 discs of 27 cells) from the block
    file that `heat_table`'s output is written as allocates, at its peak,
    less than the bytes of one disc's rows: the text is written row by row
    and disc by disc, never held whole.  The bytes are the row formatter's
    over `heat_kernel`."""
    graph = encode(family_from_obj(LOW_BRANCHING_FAMILY))
    weights = default_distance_weights(graph)
    assign = embed(graph_dendrogram(graph, weights))
    disc = discretize(assign, assign.m + 3)
    spec = KernelSpec(Bullet.GRAPH_DISTANCE, 1.0, assign.labels,
                      graph_distances(assign.labels, weights).values)
    (cross, levels), _ = heat_table(spec, disc, 0.5)
    assert levels.shape == (12, 4)
    block, path = tmp_path / "kernel.txt", tmp_path / "dense.txt"
    matrix_export(block, cross, levels, {"t": 0.5, "p": 3, "n": disc.level})
    tracemalloc.start()
    try:
        expand_heat(block, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == row_format_text(heat_kernel(spec, disc, 0.5),
                                                '# {"n": 6, "p": 3, "t": 0.5}').encode("utf-8")
    assert peak < path.stat().st_size / 12


@pytest.mark.parametrize("text", [
    "",
    "0 1\n2 3\n4\n5\n",
    '# {"K": 2, "m": 1, "n": 1, "p": 2, "s": 1}\n0 1\n2 3\n4\n',
    '# {"K": 2, "m": 1, "n": 1, "p": 2, "s": 2}\n0 1\n2 3\n4\n5\n',
    '# {"K": 2, "m": 1, "n": 2, "p": 2, "s": 2}\n0 1\n2 3\n4\n5\n',
    '# {"K": 2, "m": 1, "n": 1, "p": 2, "s": 1}\n0 1\n2 x\n4\n5\n',
    '# {"K": 2, "m": 1, "n": 1, "p": 2, "s": 1}\n0 1\n2 3\n4\n5',
    '# {"K": 2, "m": 1, "n": 1, "p": 2}\n0 1\n2 3\n4\n5\n',
    '# {"K": 2.0, "m": 1, "n": 1, "p": 2, "s": 1}\n0 1\n2 3\n4\n5\n',
    '# [2]\n0 1\n2 3\n4\n5\n',
], ids=["empty", "no_header", "a_row_short", "wrong_s", "wrong_width", "not_a_number",
        "no_last_newline", "no_s", "float_K", "not_an_object"])
def test_expand_heat_refuses_a_file_that_is_not_a_block_table(tmp_path, text):
    """The block file is outside input to `expand_heat`: one whose header
    does not describe its rows is a ParseError, and nothing is written."""
    block, dense = tmp_path / "kernel.txt", tmp_path / "dense.txt"
    block.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match="cannot read the heat table"):
        expand_heat(block, dense)
    assert not dense.exists()


@pytest.mark.parametrize("header", [{"n": 3}, {"p": 2}, {"p": 2, "n": 3, "K": 2}])
def test_matrix_export_needs_p_and_n_and_adds_the_block_keys(tmp_path, header):
    with pytest.raises(ValueError, match="header holds p and n"):
        matrix_export(tmp_path / "kernel.txt", np.zeros((2, 2)), np.zeros((2, 2)), header)


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
