"""Adjacency and normalized-Laplacian spectra, and eigenvector transport
between a graph and its zig-zag products."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, VertexMap, check_combinatorial_cover, is_covering_map
from .labeling import HLabeling, image_valency, is_locally_constant
from .product import ZigZagGraph, lift_combinatorial_cover, lift_covering, zigzag_product

# Residual tolerance for anything claimed to be an exact identity, and the
# looser tolerance for matching eigenvalues across independently computed
# spectra.
RESIDUAL_TOL = 1e-9
MATCH_TOL = 1e-6


def adjacency_matrix(g: Graph) -> np.ndarray:
    u, v = g._edge_ranks.T
    mat = np.zeros((len(g.vertices), len(g.vertices)))
    mat[u, v] = mat[v, u] = 1.0
    return mat


def _residual(g: Graph, value: float, vec: np.ndarray) -> float:
    """max |A·vec - value·vec|, with A·vec summed over the edge array, not built."""
    u, v = g._edge_ranks.T
    n = len(g.vertices)
    return np.max(np.abs(np.bincount(u, vec[v], n) + np.bincount(v, vec[u], n) - value * vec))


def _residuals(mat: np.ndarray, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """max |mat·x - value·x| of every row x of rows, with its value, by one matrix product (mat symmetric)."""
    return np.abs(rows @ mat - values[:, None] * rows).max(axis=1)


def normalized_laplacian_matrix(g: Graph) -> np.ndarray:
    n, deg = len(g.vertices), g._degrees
    isolated = [g.vertices[k] for k in np.flatnonzero(deg == 0)]
    if isolated:
        raise ValueError(f"normalized Laplacian undefined with isolated vertices: {isolated[:3]}")
    u, v = g._edge_ranks.T
    mat = np.eye(n)
    mat[u, v] = mat[v, u] = -1.0 / np.sqrt(deg[u] * deg[v])
    if n and deg.min() == deg.max():
        walk = np.eye(n) - adjacency_matrix(g) / deg[0]
        if not np.allclose(mat, walk, atol=RESIDUAL_TOL):
            raise RuntimeError("regular-graph Laplacian identity I - A/d violated")
    return mat


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted eigenvalues of a symmetric graph operator with the radius data.

    lambda2 is the largest modulus strictly below the spectral radius and is
    absent (None) when every eigenvalue shares the same modulus.
    """

    operator: str
    eigenvalues: tuple
    rho: float
    lambda2: float | None
    gap: float | None

    @classmethod
    def from_values(cls, values: np.ndarray, operator: str) -> "SpectrumReport":
        ordered = np.sort(np.asarray(values, dtype=float))[::-1]
        # Snap numerical zeros to +0.0, so float noise is never reported as data.
        ordered[np.abs(ordered) <= RESIDUAL_TOL * max(1.0, np.abs(ordered).max())] = 0.0
        size = np.abs(ordered)
        rho = float(size.max())
        below = size[size < rho - MATCH_TOL]
        lambda2 = float(below.max()) if below.size else None
        gap = rho - lambda2 if lambda2 is not None else None
        return cls(operator, tuple(ordered.tolist()), rho, lambda2, gap)


def adjacency_spectrum(g: Graph) -> SpectrumReport:
    """Eigenvalues of the adjacency operator, descending."""
    if not g.vertices:
        raise ValueError("spectrum of the empty graph is undefined")
    values = np.linalg.eigvalsh(adjacency_matrix(g))
    return SpectrumReport.from_values(values, "adjacency")


def normalized_laplacian_spectrum(g: Graph) -> SpectrumReport:
    """Eigenvalues of the normalized Laplacian, descending, all in [0, 2]."""
    values = np.linalg.eigvalsh(normalized_laplacian_matrix(g))
    return SpectrumReport.from_values(values, "normalized_laplacian")


def _canonical_sign(vec: np.ndarray) -> np.ndarray:
    for x in vec:
        if abs(x) > 1e-12:
            return -vec if x < 0 else vec
    return vec


@dataclass(frozen=True, eq=False)
class EigenPair:
    """A verified adjacency eigenpair, unit norm, sign-fixed, read-only: the constructor checks
    one pair in O(E); `adjacency_eigenpairs` checks a whole decomposition and uses `_from_verified`."""

    graph: Graph
    value: float
    vector: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=float)
        if vec.shape != (len(self.graph.vertices),):
            raise ValueError("eigenvector length must match the vertex count")
        norm = np.linalg.norm(vec)
        if not norm > RESIDUAL_TOL:  # a NaN is refused too
            raise ValueError("eigenvector is numerically zero")
        vec = _canonical_sign(vec / norm)
        residual = _residual(self.graph, self.value, vec)
        if not residual <= RESIDUAL_TOL:  # so are a NaN value and an infinite entry, whose residual is NaN
            raise ValueError(f"residual {residual:.3e} exceeds tolerance; not an eigenpair")
        vec.flags.writeable = False
        object.__setattr__(self, "vector", vec)

    @classmethod
    def _from_verified(cls, graph: Graph, value: float, vector: np.ndarray) -> "EigenPair":
        """The pair of a decomposition `adjacency_eigenpairs` has verified: nothing re-checked."""
        ep = object.__new__(cls)
        ep.__dict__.update(graph=graph, value=value, vector=vector)
        return ep

    def component(self, v) -> float:
        return float(self.vector[self.graph.vertices.index(v)])


def adjacency_eigenpairs(g: Graph) -> list[EigenPair]:
    """Full verified eigendecomposition, eigenvalues descending, in one pass: the matrix given to
    `eigh` is first certified to be the adjacency of the edge array (2E nonzeros, a 1 at both ends
    of each edge), then every vector is normalized, sign-fixed and its residual checked at once.
    The vectors are the read-only rows of one C-contiguous matrix."""
    if not g.vertices:
        raise ValueError("spectrum of the empty graph is undefined")
    mat, (u, v) = adjacency_matrix(g), g._edge_ranks.T
    if np.count_nonzero(mat) != 2 * len(u) or not ((mat[u, v] == 1) & (mat[v, u] == 1)).all():
        raise RuntimeError("dense matrix is not the adjacency of the graph's edges")
    values, rows = np.linalg.eigh(mat)
    values, rows = values[::-1], rows.T[::-1]  # one eigenvector per row, values descending
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    if (norms <= RESIDUAL_TOL).any():
        raise ValueError("eigenvector is numerically zero")
    rows = np.divide(rows, norms, order="C")
    lead = rows[np.arange(len(rows)), (np.abs(rows) > 1e-12).argmax(axis=1)]  # as in _canonical_sign
    rows *= np.where(lead < -1e-12, -1.0, 1.0)[:, None]  # a row without such an entry stays as it is
    residual = _residuals(mat, values, rows).max()
    if not residual <= RESIDUAL_TOL:  # a NaN is refused too
        raise ValueError(f"residual {residual:.3e} exceeds tolerance; not an eigenpair")
    rows.flags.writeable = False
    return [EigenPair._from_verified(g, x, vec) for x, vec in zip(values.tolist(), rows)]


@dataclass(frozen=True)
class ZeroCertificate:
    """Marker that an eigenvalue was too close to zero to descend."""

    value: float


def lift_eigenvector(ep: EigenPair, z: ZigZagGraph) -> EigenPair:
    """Copy a base eigenvector across fibers; the eigenvalue scales by the
    image valency n.  The norm grows by exactly sqrt(n), which is checked
    before renormalizing."""
    if ep.graph != z.base:
        raise ValueError("eigenpair does not belong to the product's base graph")
    if not is_locally_constant(z.labeling):
        raise ValueError("eigenvector lifting needs a locally constant labeling")
    n = image_valency(z.labeling)

    fhat = ep.vector[z._base_ranks]
    norm = np.linalg.norm(fhat)
    if abs(norm - np.sqrt(n)) > RESIDUAL_TOL:
        raise ValueError(
            f"lifted norm {norm:.6f} is not sqrt({n}); the eigenvector touches vertices without product fibers"
        )
    return EigenPair(z.product, n * ep.value, fhat)


def descend_eigenvector(ep: EigenPair, z: ZigZagGraph):
    """Collapse a product eigenvector with nonzero eigenvalue to the base.

    Such an eigenvector is constant on every fiber (checked within the
    residual tolerance); its common fiber values form a base eigenvector
    with eigenvalue scaled down by the image valency.  Eigenvalues at zero
    yield a ZeroCertificate instead.  The fibers are the runs the product keeps in `_fiber_starts`.
    """
    if ep.graph != z.product:
        raise ValueError("eigenpair does not belong to the product graph")
    if not is_locally_constant(z.labeling):
        raise ValueError("eigenvector descent needs a locally constant labeling")
    n = image_valency(z.labeling)
    if abs(ep.value) <= RESIDUAL_TOL:
        return ZeroCertificate(ep.value)

    # The product vertices are in base-rank order, so every fiber is one run of them.
    over, starts, vec = z._base_ranks, z._fiber_starts, ep.vector
    bad = np.flatnonzero(np.maximum.reduceat(vec, starts) - np.minimum.reduceat(vec, starts) > RESIDUAL_TOL)
    if bad.size:
        u = z.base.vertices[over[starts[bad[0]]]]
        raise RuntimeError(f"eigenvector with eigenvalue {ep.value:.6g} is not fiber-constant above {u}")
    f = np.zeros(len(z.base.vertices))
    f[over[starts]] = vec[starts]  # 0 above no fiber
    return EigenPair(z.base, ep.value / n, f)


def normalized_radius(g: Graph, d: int) -> float:
    """Spectral radius of the degree-normalized adjacency operator A/d."""
    if d <= 0:
        raise ValueError("degree must be positive")
    if g.is_regular() != d:
        raise ValueError(f"graph is not {d}-regular")
    return adjacency_spectrum(g).rho / d


def radius_comparison_check(g: Graph, h: Graph, a: HLabeling) -> bool:
    """Normalized radius of the base never exceeds the product's.

    Hypotheses: g is m-regular, h is d-regular on m vertices, and at each
    base vertex the dart labels enumerate the label graph bijectively.  The
    product is then d^2-regular and the inequality is checked numerically.
    """
    m = g.is_regular()
    if m is None or m == 0:
        raise ValueError("base graph must be regular with positive degree")
    d = h.is_regular()
    if d is None or d == 0:
        raise ValueError("label graph must be regular with positive degree")
    if len(h.vertices) != m:
        raise ValueError(f"label graph must have {m} vertices, the base degree; has {len(h.vertices)}")
    if a.base != g:
        raise ValueError("labeling does not belong to the given base graph")
    # The m darts at a vertex are consecutive in dart order; their labels, as ranks in h (-1 if not in h),
    # are a bijection onto h's vertices when sorted they read 0..m-1.
    in_h = np.array([h._rank.get(x, -1) for x in a.labels.vertices], np.intp)
    bad = np.flatnonzero((np.sort(in_h[a._dart_ranks()].reshape(-1, m), axis=1) != np.arange(m)).any(axis=1))
    if bad.size:
        raise ValueError(f"dart labels at {g.vertices[bad[0]]} are not a bijection onto the label vertices")
    z = zigzag_product(g, h, a)
    reg = z.product.is_regular()
    if reg != d * d:
        raise RuntimeError(f"product regularity {reg} contradicts the expected {d * d}")
    return normalized_radius(g, m) <= normalized_radius(z.product, d * d) + RESIDUAL_TOL


def cover_radius_check(p: VertexMap, z: ZigZagGraph) -> bool:
    """Adjacency spectral radius never grows when lifting along a covering."""
    if not is_covering_map(p):
        raise ValueError("map is not a covering map")
    lift = lift_covering(p, z)
    return adjacency_spectrum(lift.lifted.product).rho <= adjacency_spectrum(z.product).rho + RESIDUAL_TOL


def spectrum_contained(small: SpectrumReport, big: SpectrumReport, tol: float = MATCH_TOL) -> bool:
    """Every eigenvalue of the first spectrum occurs in the second, up to tol."""
    xs, ys = np.array(small.eigenvalues), np.concatenate(([-np.inf], np.sort(big.eigenvalues), [np.inf]))
    at = np.searchsorted(ys, xs)  # ys[at - 1] < x <= ys[at], so one of the two is nearest
    return not (np.minimum(xs - ys[at - 1], ys[at] - xs) > tol).any()


def laplacian_containment_check(p: VertexMap, z: ZigZagGraph) -> bool:
    """Laplacian eigenvalues of the base product all reappear in the product
    over a combinatorial cover."""
    res = check_combinatorial_cover(p)
    if not res:
        raise ValueError(f"map is not a combinatorial cover: {res.violation} at {res.witness}")
    lift = lift_combinatorial_cover(p, z)
    for graph, name in (
        (p.domain, "covering graph"),
        (p.codomain, "base graph"),
        (z.product, "base product"),
        (lift.lifted.product, "lifted product"),
    ):
        if not graph._degrees.all():
            raise ValueError(f"{name} has isolated vertices; Laplacian spectra undefined")
    small = normalized_laplacian_spectrum(z.product)
    big = normalized_laplacian_spectrum(lift.lifted.product)
    return spectrum_contained(small, big)


def nonzero_eigenvalues(report: SpectrumReport, tol: float = MATCH_TOL) -> tuple:
    return tuple(x for x in report.eigenvalues if abs(x) > tol)


def multisets_match(xs, ys, tol: float = MATCH_TOL) -> bool:
    """Sorted elementwise comparison of two real multisets."""
    return len(xs) == len(ys) and bool((np.abs(np.sort(xs) - np.sort(ys)) <= tol).all())
