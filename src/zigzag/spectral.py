"""Adjacency and normalized-Laplacian spectra, and eigenvector transport
between a graph and its zig-zag products."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, VertexMap, format_vertex
from .labeling import HLabeling, image_valency, is_locally_constant
from .product import ZigZagGraph, lift_combinatorial_cover, lift_covering, zigzag_product

# Residual tolerance for anything claimed to be an exact identity, and the
# looser tolerance for matching eigenvalues across independently computed
# spectra.
RESIDUAL_TOL = 1e-9
MATCH_TOL = 1e-6
# Bytes a dense n×n float64 operator may take (n up to 11 585), checked before `_matrix` builds it or its block.
DENSE_BYTES = 2**30


def _matrix(g: Graph, weights=1.0, split: bool = True):
    """g's adjacency with the weights at the edges, refused unbuilt if its n×n matrix is over DENSE_BYTES: if g is
    bipartite (and split) the p×q block B of [[0, B], [Bᵀ, 0]] (rows side 0, columns side 1, in rank order) and each
    vertex's place in [side 0 | side 1] order, else the n×n matrix and None; and each edge's (row, column)."""
    n, (u, v) = len(g.vertices), g._edge_ranks.T
    if split and not n:  # every eigensolve splits; the public matrix builders give the empty graph its 0×0 matrix
        raise ValueError("spectrum of the empty graph is undefined")
    if 8 * n * n > DENSE_BYTES:
        raise ValueError(f"a dense {n}x{n} matrix takes {8 * n * n} bytes, over the limit of {DENSE_BYTES}")
    sides = g._sides if split else None
    if sides is None:
        mat = np.zeros((n, n))
        mat[u, v] = mat[v, u] = weights
        return mat, None, (u, v)
    place, p = sides
    row, col = np.sort(place[g._edge_ranks], axis=1).T
    block = np.zeros((p, n - p))
    block[row, col - p] = weights
    return block, place, (row, col - p)


def adjacency_matrix(g: Graph) -> np.ndarray:
    return _matrix(g, split=False)[0]


def _block_values(block: np.ndarray, s=None) -> np.ndarray:
    """The spectrum of [[0, B], [Bᵀ, 0]], descending: the singular values s of B, |p - q| zeros, then -s."""
    s = np.linalg.svd(block, compute_uv=False) if s is None else s
    return np.concatenate((s, np.zeros(abs(block.shape[0] - block.shape[1])), -s[::-1]))


def _residual(g: Graph, value: float, vec: np.ndarray) -> float:
    """max |A·vec - value·vec|, with A·vec summed over the neighbour index's rows, not built."""
    indptr, indices = g._csr
    if g._isolated_free:
        sums = np.add.reduceat(vec[indices], indptr[:-1])
    else:  # reduceat reads an empty row as the next row's first entry, or the 0 put past the end: masked
        sums = np.add.reduceat(np.append(vec[indices], 0.0), indptr[:-1]) * (g._degrees > 0)
    return np.abs(sums - value * vec).max()


def _residuals(mat: np.ndarray, values: np.ndarray, rows: np.ndarray, block: bool = False) -> np.ndarray:
    """max |A·x - value·x| of every row x of rows, with its value, by matrix products: A = mat (symmetric), or
    if block A = [[0, B], [Bᵀ, 0]] with B = mat and each x in side order, A·(x₀, x₁) = (B·x₁, Bᵀ·x₀), a half apiece."""
    p, vx = mat.shape[0], values[:, None] * rows
    parts = ((rows[:, p:] @ mat.T, vx[:, :p]), (rows[:, :p] @ mat, vx[:, p:])) if block else ((rows @ mat, vx),)
    return np.maximum.reduce([np.abs(ax - x).max(axis=1, initial=0.0) for ax, x in parts])  # a side may be empty


def _laplacian(g: Graph, split: bool):
    """`_matrix` of L = I - D^(-1/2)·A·D^(-1/2), weights -1/√(d_u·d_v), checked -1/d if d-regular (d = 2|E|/|V|)."""
    deg = g._degrees
    isolated = [g.vertices[k] for k in np.flatnonzero(deg == 0)]
    if isolated:
        raise ValueError(f"normalized Laplacian undefined with isolated vertices: {isolated[:3]}")
    u, v = g._edge_ranks.T
    weights = -1.0 / np.sqrt(deg[u] * deg[v])
    if deg.size and deg.min() == deg.max() and not np.allclose(weights, -len(deg) / (2 * len(u)), atol=RESIDUAL_TOL):
        raise RuntimeError("regular-graph Laplacian identity I - A/d violated")
    mat, place, _ = _matrix(g, weights, split)
    if place is None:
        np.fill_diagonal(mat, 1.0)
    return mat, place


def normalized_laplacian_matrix(g: Graph) -> np.ndarray:
    return _laplacian(g, split=False)[0]


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
    """Eigenvalues of the adjacency operator, descending: ±σ of a bipartite graph's block."""
    mat, place, _ = _matrix(g)
    values = np.linalg.eigvalsh(mat) if place is None else _block_values(mat)
    return SpectrumReport.from_values(values, "adjacency")


def normalized_laplacian_spectrum(g: Graph) -> SpectrumReport:
    """Eigenvalues of the normalized Laplacian, descending, all in [0, 2]: 1 ∓ σ of a bipartite graph's block."""
    mat, place = _laplacian(g, split=True)
    values = np.linalg.eigvalsh(mat) if place is None else 1.0 + _block_values(mat)
    return SpectrumReport.from_values(values, "normalized_laplacian")


def _fix_signs(rows: np.ndarray) -> None:
    """Negate, in place, every row (one vector a row) whose first entry of modulus over 1e-12 is negative."""
    lead = rows[np.arange(len(rows)), (np.abs(rows) > 1e-12).argmax(axis=1)]
    rows *= np.where(lead < -1e-12, -1.0, 1.0)[:, None]  # a row without such an entry stays as it is


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
        norm = np.sqrt(vec @ vec)
        if not norm > RESIDUAL_TOL:  # a NaN is refused too
            raise ValueError("eigenvector is numerically zero")
        vec = vec / norm  # before the sign fix, whose 1e-12 is absolute
        vec *= -1.0 if vec[(np.abs(vec) > 1e-12).argmax()] < -1e-12 else 1.0  # `_fix_signs` of one vector
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
        if v not in self.graph._rank:
            raise ValueError(f"vertex {format_vertex(v)} not in graph")
        return float(self.vector[self.graph._rank[v]])


def adjacency_eigenpairs(g: Graph) -> list[EigenPair]:
    """Full verified eigendecomposition, eigenvalues descending, in one pass: the matrix given to `eigh`, or a
    bipartite graph's block B = U·diag(σ)·Vᵀ given to `svd` (then (u, ±v)/√2 have eigenvalues ±σ, spare columns of
    U or V 0), is first certified against the edge array, then every vector is normalized, sign-fixed and its
    residual checked at once.  The vectors are the read-only rows of one C-contiguous matrix."""
    mat, place, at = _matrix(g)
    entries = [at] if place is not None else [at, at[::-1]]  # the n×n matrix holds each edge twice
    if np.count_nonzero(mat) != len(entries) * len(at[0]) or not all((mat[e] == 1).all() for e in entries):
        raise RuntimeError("dense matrix is not the adjacency of the graph's edges")
    if place is None:
        values, rows = np.linalg.eigh(mat)
        values, rows = values[::-1], rows.T[::-1]  # one eigenvector per row, values descending
    else:
        (p, q), (left, s, right) = mat.shape, np.linalg.svd(mat)
        r, rows = min(p, q), np.zeros((p + q, p + q))  # a vector a row, by sides: those of σ, 0, then -σ
        x, y = np.sqrt(0.5) * left[:, :r].T, np.sqrt(0.5) * right[:r]
        rows[:r, :p], rows[:r, p:], rows[p + q - r:, :p], rows[p + q - r:, p:] = x, y, x[::-1], -y[::-1]
        rows[r:p, :p], rows[p:p + q - r, p:] = left[:, r:].T, right[r:]
        values = _block_values(mat, s)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    if (norms <= RESIDUAL_TOL).any():
        raise ValueError("eigenvector is numerically zero")
    rows = np.divide(rows, norms, order="C")
    residual = _residuals(mat, values, rows, place is not None).max()
    if not residual <= RESIDUAL_TOL:  # a NaN is refused too
        raise ValueError(f"residual {residual:.3e} exceeds tolerance; not an eigenpair")
    if place is not None:
        rows = rows.take(place, axis=1)  # from side order to rank order, C-contiguous
    _fix_signs(rows)
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
    norm = np.sqrt(fhat @ fhat)
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
    bad = np.maximum.reduceat(vec, starts) - np.minimum.reduceat(vec, starts) > RESIDUAL_TOL  # a NaN spread passes
    if bad.any():
        u = z.base.vertices[over[starts[bad.argmax()]]]  # the first fiber that is not constant
        raise RuntimeError(f"eigenvector with eigenvalue {ep.value:.6g} is not fiber-constant above {u}")
    f = np.zeros(len(z.base.vertices))
    f[over[starts]] = vec[starts]  # 0 above no fiber
    return EigenPair(z.base, ep.value / n, f)


def normalized_radius(g: Graph, d: int) -> float:
    """ρ(A)/d, exactly 1 with no eigensolve: g must be d-regular, so A·1 = d·1 and ρ(A) ≤ max row sum = d."""
    if d <= 0:
        raise ValueError("degree must be positive")
    if g.is_regular() != d:
        raise ValueError(f"graph is not {d}-regular")
    return 1.0


def radius_comparison_check(g: Graph, h: Graph, a: HLabeling) -> bool:
    """Normalized radius of the base never exceeds the product's.

    Hypotheses: g is m-regular, h is d-regular on m vertices, and at each
    base vertex the dart labels enumerate the label graph bijectively.  The
    product is then d^2-regular, which is checked.  The hypotheses decide the
    verdict: a D-regular graph's normalized radius is exactly 1, so once they
    hold the comparison does, and nothing is re-tested or eigensolved.
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
    return True


def cover_radius_check(p: VertexMap, z: ZigZagGraph) -> bool:
    """Adjacency spectral radius never grows when lifting along a covering."""
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
    """The eigenvalues above tol·max(1, rho) in modulus."""
    return tuple(np.array(report.eigenvalues)[np.abs(report.eigenvalues) > tol * max(1.0, report.rho)].tolist())


def multisets_match(xs, ys, tol: float = MATCH_TOL) -> bool:
    """Sorted elementwise comparison of two real multisets."""
    return len(xs) == len(ys) and bool((np.abs(np.sort(xs) - np.sort(ys)) <= tol).all())
