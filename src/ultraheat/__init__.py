"""Multi-topology graph encoding, ultrametric indexing, cluster-parallel
topological sorting, and exact finite p-adic heat operators."""

from . import errors
from .heat import (
    BoundReport,
    convergence_study,
    disc_semigroup,
    heat_kernel,
    kernel_swap_bound,
    semigroup,
    solve_cauchy,
    truncation_bound,
)
from .multitopo import Dag, TopologyFamily, WeightedMultiGraph, decode, encode, first_primes
from .operators import (
    Bullet,
    GeneratorMatrix,
    KernelSpec,
    degree,
    generator,
    kernel_value,
    truncated_domain,
)
from .padic import (
    CellDomain,
    DiscAssignment,
    PAdicCell,
    TreeMeasure,
    discretize,
    embed,
    padic_distance,
    tree_measure,
)
from .spectra import (
    EigenBasis,
    full_basis,
    kozyrev_eigenvalue,
    kozyrev_local_eigenvalue,
    kozyrev_wavelet,
    ultrametric_eigenvalue,
    ultrametric_wavelet,
    verify_eigenpair,
)
from .toposort import kahn_sort, merge_sorted_clusters, parallel_toposort
from .ultraindex import (
    Dendrogram,
    DendrogramNode,
    DistanceMatrix,
    UltrametricMatrix,
    build_dendrogram,
    graph_dendrogram,
    graph_distances,
    minimal_cluster,
    subdominant_ultrametric,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
