"""Batch front end: encode/decode families, build indexes, sort, and run
spectra, heat kernels, bound certification, and convergence studies.

Every subcommand writes deterministic artifacts and prints a JSON summary
(one record per artifact with path, sha256 and key metrics).  Module
errors map to distinct exit codes; malformed input exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import errors, heat, multitopo, operators, padic, serialize, spectra, toposort, ultraindex

EXIT_CODES = {
    errors.ParseError: 2,
    errors.CyclicInput: 3,
    errors.DuplicatePrime: 4,
    errors.NotPrime: 4,
    errors.UnknownPrimeFactor: 5,
    errors.AmbiguousOrientation: 6,
    errors.DisconnectedGraph: 7,
    errors.CycleDetected: 8,
    errors.PrimeMismatch: 9,
    errors.LevelTooCoarse: 10,
    errors.InvalidLevel: 11,
    errors.CellOutsideZ: 12,
    errors.BallOutsideZ: 13,
    errors.BadJ: 14,
    errors.LeafNode: 15,
    errors.TrivialCharacter: 16,
    errors.IncompleteBasis: 17,
    errors.DimensionMismatch: 18,
    errors.NegativeTime: 19,
    errors.BoundViolated: 20,
    errors.BadAlpha: 21,
    errors.NotSelfAdjoint: 22,
    errors.BadWeight: 23,
    errors.TooManyCells: 24,
    errors.BadKernel: 25,
    errors.RateOverflow: 26,
    errors.CertificateFailed: 27,
    errors.OutputError: 28,
}


def _summary(subcommand: str, artifacts: list[dict], metrics: dict) -> None:
    print(serialize.canonical_dumps(
        {"subcommand": subcommand, "artifacts": artifacts, "metrics": metrics}
    ), end="")


def _check_output(path: str) -> None:
    """Raise OutputError, before any input is read, for an --output that
    cannot be written: a name that is not UTF-8 (undecodable bytes reach
    Python as lone surrogates, which no summary could print as UTF-8
    JSON), an existing directory, or a path whose directory does not
    exist."""
    try:
        path.encode("utf-8")
    except UnicodeEncodeError:
        raise errors.OutputError(f"the output name {ascii(path)} is not UTF-8") from None
    if os.path.isdir(path):
        raise errors.OutputError(f"cannot write {path}: it is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise errors.OutputError(f"cannot write {path}: {parent} is not a directory")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_encode(args) -> int:
    family = serialize.family_from_obj(serialize.load_json(args.input))
    graph = multitopo.encode(family)
    digest = serialize.write_text(args.output, serialize.graph_text(graph, primes=family.primes))
    _summary("encode", [{"path": args.output, "sha256": digest}], {
        "vertices": len(graph.vertices),
        "edges": len(graph.w),
        "topologies": len(family.dags),
    })
    return 0


def cmd_decode(args) -> int:
    graph, stored_primes = serialize.graph_from_obj(serialize.load_json(args.input))
    primes = args.primes or stored_primes
    if not primes:
        raise errors.ParseError("no primes stored in the file and none given")
    lengths = {len(vec) for vec in graph.d.values()}  # at most one, as graph_from_obj checks
    if lengths - {len(primes)}:
        raise errors.ParseError(f"{len(primes)} primes for dimension vectors of length "
                                f"{lengths.pop()}")
    family = multitopo.decode(graph, primes)
    digest = serialize.write_text(args.output, serialize.family_text(family))
    _summary("decode", [{"path": args.output, "sha256": digest}], {
        "vertices": len(family.vertex_ids),
        "topologies": len(family.dags),
    })
    return 0


def cmd_index(args) -> int:
    graph, _ = serialize.graph_from_obj(serialize.load_json(args.input))
    if not graph.vertices:
        raise errors.ParseError("the graph file lists no vertex to index")
    weights = ultraindex.default_distance_weights(graph)
    assign = padic.embed(ultraindex.graph_dendrogram(graph, weights))
    digest = serialize.write_text(args.output, serialize.index_text(assign, weights))
    _summary("index", [{"path": args.output, "sha256": digest}], {
        "vertices": len(assign.labels),
        "p": assign.p,
        "m": assign.m,
        "max_level": assign.dendrogram.max_level,
    })
    return 0


def _resolve_seeds(dag: toposort.Dag, text: str) -> list:
    """The DAG labels named by a comma-separated seed list, matched by str
    as the DAG file's weight keys are, so that seeds reach integer labels
    too; a DAG file's vertices are distinct as text."""
    by_text = {str(v): v for v in dag.vertices}
    try:
        return [by_text[name] for name in text.split(",")]
    except KeyError as exc:
        raise errors.ParseError(f"seed {exc.args[0]!r} names no vertex of the DAG") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integers separated by commas, got {text!r}") from None


def cmd_toposort(args) -> int:
    dag, weights = serialize.dag_from_obj(serialize.load_json(args.input))
    seeds = _resolve_seeds(dag, args.seeds) if args.seeds else [dag.str_order[0]]
    if args.index:
        assign, _ = serialize.index_from_obj(serialize.load_json(args.index))
        dend = assign.dendrogram
        if set(dend.labels) != set(dag.vertices):
            raise errors.ParseError("the index's vertices are not the DAG's vertices")
    else:
        if not weights:
            weights = {frozenset(e): 1.0 for e in dag.edges}
        dend = ultraindex.graph_dendrogram(dag.vertices, _join_components(dag.str_order, weights))
    order = toposort.parallel_toposort(dag, dend, seeds, parallelism=args.parallelism)
    pos = {v: i for i, v in enumerate(order)}
    valid = all(pos[u] < pos[v] for u, v in dag.edges)
    lines = "\n".join(map(str, order)) + "\n"
    digest = serialize.write_text(args.output, lines)
    _summary("toposort", [{"path": args.output, "sha256": digest}], {
        "vertices": len(order),
        "valid_linear_extension": valid,
        "parallelism": args.parallelism,
    })
    return 0 if valid else 1


def _join_components(str_order: tuple, weights: dict) -> dict:
    """The weights plus an edge from the str-smallest vertex to every other
    one that no weight joins it to, all at one weight above every edge
    weight, or at the largest one when that is the largest float.  Single
    linkage merges these last, at one height: the graph's connected
    components become the children of one root, and a connected graph,
    whose clusters all merge by its largest weight, keeps its tree."""
    top = max(weights.values(), default=1.0)
    join = top if top == sys.float_info.max else math.nextafter(top, math.inf)
    joined = dict(weights)  # the given weights first, so a bad one is reported first
    for v in str_order[1:]:
        joined.setdefault(frozenset((str_order[0], v)), join)
    return joined


def _spec_from_index(bullet: str, alpha: float, assign, weights) -> operators.KernelSpec:
    """The kernel of one bullet, with only that bullet's base matrix built:
    the tree's ultrametric, the graph distances or the weighted adjacency.
    The weights are the index's edge columns, over the tree's labels."""
    dend = assign.dendrogram
    labels = dend.labels
    bullet = operators.Bullet(bullet)
    if bullet is operators.Bullet.ULTRAMETRIC:
        base = dend.delta_matrix().values
    elif bullet is operators.Bullet.GRAPH_DISTANCE:
        base = ultraindex.graph_distances(labels, weights).values
    else:
        base = np.zeros((len(labels), len(labels)))
        base[weights.lo, weights.hi] = base[weights.hi, weights.lo] = weights.weights
    return operators.KernelSpec(bullet, alpha, labels, base)


def cmd_spectrum(args) -> int:
    assign, weights = serialize.index_from_obj(serialize.load_json(args.input))
    disc = padic.discretize(assign, args.level)  # the cell count first, then the base matrix
    spec = _spec_from_index(args.bullet, args.alpha, assign, weights)
    basis = spectra.full_basis(spec, disc, args.measure)
    residuals = np.array([r.residual for r in basis.records])
    lams = basis.eigenvalues()
    bad = np.count_nonzero(~(residuals <= 1e-9)), np.count_nonzero(~np.isfinite(lams))
    if any(bad):  # every record: the builtin max and min pass over a NaN after the first item
        raise errors.CertificateFailed(f"spectrum certificates failed: {bad[0]} residuals above "
            f"1e-9 or not finite (largest {np.max(residuals):g}), {bad[1]} eigenvalues not finite")
    digest = serialize.spectrum_export(args.output, basis)
    _summary("spectrum", [{"path": args.output, "sha256": digest}], {
        "cells": len(disc),
        "eigenpairs": len(basis),
        "max_residual": _fmt(residuals.max()),
        "min_eigenvalue": _fmt(lams.min()),
    })
    return 0


def cmd_heat(args) -> int:
    heat.check_time(args.t)
    assign, weights = serialize.index_from_obj(serialize.load_json(args.input))
    disc = padic.discretize(assign, args.level)
    spec = _spec_from_index(args.bullet, args.alpha, assign, weights)
    (cross, own), certificates = heat.heat_table(spec, disc, args.t, args.measure)
    gap, defect = certificates["two_route_gap"], certificates["row_sum_defect"]
    scale = certificates["gap_scale"]
    if not math.isfinite(gap + defect):  # both are >= 0, so only inf or NaN fails
        raise errors.CertificateFailed(f"heat certificates not finite: two-route gap "
                                       f"{gap:g}, row-sum defect {defect:g}")
    if gap > scale:
        raise errors.CertificateFailed(f"heat two-route gap {gap:g} above its scale {scale:g}")
    digest = serialize.matrix_export(args.output, cross, own, {
        "p": assign.p, "n": args.level, "bullet": args.bullet,
        "alpha": args.alpha, "measure": args.measure, "t": args.t,
    })
    _summary("heat", [{"path": args.output, "sha256": digest}], {
        "cells": len(disc),
        "gap_scale": _fmt(scale),
        "row_sum_defect": _fmt(defect),
        "two_route_gap": _fmt(gap),
    })
    return 0


def cmd_bounds(args) -> int:
    assign, weights = serialize.index_from_obj(serialize.load_json(args.input))
    disc = padic.discretize(assign, args.level)
    rng = np.random.default_rng(args.seed)
    if args.truncate is not None:
        spec = _spec_from_index(args.bullet, args.alpha, assign, weights)
        u = rng.uniform(-1, 1, len(disc))
        report = heat.truncation_bound(spec, disc, args.truncate, args.t, u)
        meta = {"mode": "truncate", "ell": args.truncate}
    else:
        spec_a, spec_b = (_spec_from_index(name, args.alpha, assign, weights) for name in args.swap)
        report = heat.kernel_swap_bound(spec_a, spec_b, disc, args.t)
        meta = {"mode": "swap", "pair": list(args.swap)}
    obj = {
        "measured_sup_error": report.measured_sup_error,
        "theoretical_bound": report.theoretical_bound,
        "tight_bound": report.tight_bound,
        "slack": report.slack,
        "volumes": report.volumes,
        "constants_sum": report.constants_sum,
        **meta,
    }
    digest = serialize.write_canonical(args.output, obj)
    _summary("bounds", [{"path": args.output, "sha256": digest}], {
        "slack": _fmt(report.slack),
        "measured": _fmt(report.measured_sup_error),
        "bound": _fmt(report.theoretical_bound),
    })
    return 0


def cmd_converge(args) -> int:
    assign, weights = serialize.index_from_obj(serialize.load_json(args.input))
    rng = np.random.default_rng(args.seed)
    u0 = rng.uniform(-1, 1, padic.cell_count(assign, args.reference))
    spec = _spec_from_index(args.bullet, args.alpha, assign, weights)
    rows = heat.convergence_study(spec, assign, u0, args.levels, args.tau, args.measure)
    text = "n\tgap\n" + "".join(f"{n}\t{gap:.17g}\n" for n, gap in rows)
    digest = serialize.write_text(args.output, text)
    _summary("converge", [{"path": args.output, "sha256": digest}], {
        "levels": args.levels,
        "final_gap": _fmt(rows[-1][1]),
    })
    return 0


def _bullet_pair(text: str) -> tuple[str, str]:
    names = text.split(",")
    known = [b.value for b in operators.Bullet]
    if len(names) != 2 or not all(name in known for name in names):
        raise argparse.ArgumentTypeError(
            f"expected two of {', '.join(known)} separated by a comma, got {text!r}"
        )
    return names[0], names[1]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Subcommands are
    dispatched by name at call time (``cmd_<subcommand>``), so the parser
    holds no function that a caller might later replace."""
    parser = argparse.ArgumentParser(prog="ultraheat", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--input", required=True)
    files.add_argument("--output", required=True)
    kernel = argparse.ArgumentParser(add_help=False)
    kernel.add_argument("--bullet", choices=[b.value for b in operators.Bullet], required=True)
    kernel.add_argument("--measure", choices=["haar", "nu"], default="haar")
    kernel.add_argument("--alpha", type=float, default=1.0)

    sub.add_parser("encode", parents=[files],
                   help="pack a family of DAG topologies into one graph")

    p = sub.add_parser("decode", parents=[files], help="recover the family from a weighted graph")
    p.add_argument("--primes", type=_int_list, default=[])

    sub.add_parser("index", parents=[files],
                   help="dendrogram from the graph's spanning tree, and its discs")

    p = sub.add_parser("toposort", parents=[files], help="cluster-parallel topological sort")
    p.add_argument("--seeds", default="")
    p.add_argument("--parallelism", type=_positive_int, default=1)
    p.add_argument("--index", default="")

    p = sub.add_parser("spectrum", parents=[files, kernel],
                       help="full eigenbasis with certified residuals")
    p.add_argument("--level", type=int, required=True)

    p = sub.add_parser("heat", parents=[files, kernel], help="heat kernel table at time t")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("bounds", parents=[files], help="certify truncation or kernel-swap bounds")
    p.add_argument("--bullet", choices=[b.value for b in operators.Bullet],
                   default="ultrametric")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--truncate", type=int, default=None)
    p.add_argument("--swap", type=_bullet_pair, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("converge", parents=[files, kernel],
                       help="level-refinement convergence study")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--levels", type=_int_list, required=True)
    p.add_argument("--reference", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "bounds" and (args.truncate is None) == (not args.swap):
        parser.error("bounds needs exactly one of --truncate or --swap")
    try:
        _check_output(args.output)
        return globals()[f"cmd_{args.subcommand}"](args)
    except errors.UltraheatError as exc:
        code = EXIT_CODES.get(type(exc), 30)
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc), "exit": code}),
            file=sys.stderr,
        )
        return code


if __name__ == "__main__":
    sys.exit(main())
