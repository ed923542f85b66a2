"""Exception types shared across the package."""


class UltraheatError(Exception):
    """Base class for all library errors."""


# --- multitopo ---------------------------------------------------------------

class CyclicInput(UltraheatError):
    """A relation claimed to be a DAG contains a directed cycle."""


class DuplicatePrime(UltraheatError):
    """Two topologies were assigned the same prime."""


class NotPrime(UltraheatError):
    """A topology label is not a prime number."""


class UnknownPrimeFactor(UltraheatError):
    """An edge weight has a factor outside the declared prime list."""


class AmbiguousOrientation(UltraheatError):
    """Endpoint dimensions are equal, so an edge cannot be oriented."""


# --- ultraindex ---------------------------------------------------------------

class DisconnectedGraph(UltraheatError):
    """Shortest-path distances requested on a disconnected graph."""


class BadWeight(UltraheatError, ValueError):
    """An edge weight is not a finite positive number, its key does not
    name two listed vertices, or a graph distance summed from the weights
    overflows the largest float."""


# --- toposort -----------------------------------------------------------------

class CycleDetected(UltraheatError):
    """Topological sorting found a directed cycle."""


# --- padic ---------------------------------------------------------------------

class PrimeMismatch(UltraheatError):
    """Two p-adic cells live over different primes."""


class LevelTooCoarse(UltraheatError):
    """Discretisation level is not finer than the vertex discs."""


# --- operators -------------------------------------------------------------------

class BadAlpha(UltraheatError):
    """The kernel exponent alpha is not a finite number at least 1."""


class CellOutsideZ(UltraheatError):
    """A cell does not belong to any vertex disc."""


class InvalidLevel(UltraheatError):
    """Tree truncation level outside the valid range."""


class TooManyCells(UltraheatError, ValueError):
    """A discretisation has more cells than the dense-matrix limit."""


class RateOverflow(UltraheatError):
    """A domain's largest jump rate or largest generator entry is not a
    finite float."""


class BadKernel(UltraheatError, ValueError):
    """A kernel base, its labels or its measure cannot define the operator,
    or a bound's mean-value constant meets a zero rate."""


# --- linalg --------------------------------------------------------------------------

class NotSelfAdjoint(UltraheatError, ValueError):
    """An operator is not symmetric under the given measure."""


# --- spectra -----------------------------------------------------------------------

class BallOutsideZ(UltraheatError):
    """A wavelet support ball is not contained in a vertex disc."""


class BadJ(UltraheatError):
    """Kozyrev character index outside 1..p-1."""


class LeafNode(UltraheatError):
    """An ultrametric wavelet was requested on a leaf."""


class TrivialCharacter(UltraheatError):
    """Character index 0 gives the constant, not a wavelet."""


class IncompleteBasis(UltraheatError):
    """Eigenbasis size does not match the discretised space dimension."""


class DimensionMismatch(UltraheatError):
    """Vector/matrix shapes are inconsistent."""


# --- heat ----------------------------------------------------------------------------

class NegativeTime(UltraheatError):
    """Times must be finite and non-negative: semigroups are defined for t >= 0."""


class BoundViolated(UltraheatError):
    """A certified error bound was exceeded; carries both sides."""


class CertificateFailed(UltraheatError, ValueError):
    """A result fails its own check: a certificate of ``heat`` (two-route
    gap or row-sum defect) or of ``bounds`` (error or bound) is not finite."""


# --- cli / serialisation ---------------------------------------------------------------

class ParseError(UltraheatError):
    """An input file does not match its documented schema."""


class OutputError(UltraheatError):
    """An output file cannot be opened or written."""
