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
    n, (u, v) = g._order, g._edge_ranks.T
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


def _quotient(g: Graph, block: np.ndarray, place: np.ndarray) -> tuple:
    """W = D₀^(1/2)·B[reps₀][:, reps₁]·D₁^(1/2) of g's block B, a row (column) per class of `_twins` on side 0 (1), D
    the class sizes, and each side's positions' classes.  Twins share a side and a row (column) of B, so B = Ŝ₀·W·Ŝ₁ᵀ,
    Ŝ the class indicator scaled to orthonormal columns (equitable partitions; Godsil and Royle, *Algebraic Graph
    Theory*): W's singular triple (u, σ, v) is B's (Ŝ₀u, σ, Ŝ₁v), and B has no other nonzero σ."""
    p, rep = block.shape[0], place[g._twins[np.argsort(place)]]  # each side position's class's first position
    first = rep == np.arange(rep.size)
    cls, reps, k = (np.cumsum(first) - 1)[rep], np.flatnonzero(first), np.count_nonzero(first[:p])
    root, w = np.sqrt(np.bincount(cls)), block.take(reps[:k], axis=0).take(reps[k:] - p, axis=1)
    return w * root[:k, None] * root[k:], cls[:p], cls[p:] - k


def _block_values(g: Graph, block: np.ndarray, place: np.ndarray, s=None) -> np.ndarray:
    """The spectrum of [[0, B], [Bᵀ, 0]], descending: the singular values s of B's twin quotient, zeros, then -s."""
    s = np.linalg.svd(_quotient(g, block, place)[0], compute_uv=False) if s is None else s
    return np.concatenate((s, np.zeros(g._order - 2 * s.size), -s[::-1]))


def _residual(g: Graph, value: float, vec: np.ndarray) -> float:
    """max |A·vec - value·vec|, with A·vec summed over the neighbour index's rows, not built."""
    indptr, indices = g._csr
    if g._isolated_free:
        sums = np.add.reduceat(vec.take(indices), indptr[:-1])
    else:  # reduceat reads an empty row as the next row's first entry, or the 0 put past the end: masked
        sums = np.add.reduceat(np.append(vec.take(indices), 0.0), indptr[:-1]) * (g._degrees > 0)
    sums -= value * vec
    return np.abs(sums, out=sums).max()


def _residuals(mat: np.ndarray, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """max |A·x - value·x| of every row x of rows, with its value, by one matrix product with A = mat (symmetric)."""
    return np.abs(rows @ mat - values[:, None] * rows).max(axis=1)


def _block_residuals(block: np.ndarray, s: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """max |A·x - λ·x|, A = [[0, B], [Bᵀ, 0]], of each x in `adjacency_eigenpairs`' order, made of the unit rows u
    of left and v of right, from two block products: (u, ±v)/√2 of the singular triples (u, σ, v) first,
    max(|B·v - σu|, |Bᵀ·u - σv|)/√2; then (u, 0) and (0, v), |Bᵀ·u| and |B·v|."""
    r, bv, btu = s.size, right @ block.T, left @ block
    bv[:r] -= s[:, None] * left[:r]
    btu[:r] -= s[:, None] * right[:r]
    x, y = (np.abs(a).max(axis=1, initial=0.0) for a in (btu, bv))  # a side may be empty
    pair = np.sqrt(0.5) * np.maximum(x[:r], y[:r])
    return np.concatenate((pair, x[r:], y[r:], pair[::-1]))


def _spread(rows: np.ndarray, cls: np.ndarray) -> np.ndarray:
    """Orthonormal rows over classes spread over the members cls puts in them, over √(class size), then the Helmert
    rows (1, ..., 1, -j, 0, ...)/√(j·(j + 1)) on each class's first j + 1 members, 0 < j: an orthonormal basis."""
    m = np.arange(cls.size)
    before = (cls[:, None] == cls) & (m[:, None] > m)  # before[t, u]: u is in t's class, ahead of t
    (at,) = np.nonzero(before.any(axis=1))  # every member but the first of its class
    j = np.count_nonzero(before[at], axis=1)[:, None]  # its place in its class
    helmert = (before[at] - j * (at[:, None] == m)) / np.sqrt(j * (j + 1.0))
    return np.concatenate((rows.take(cls, axis=1) / np.sqrt(np.bincount(cls)).take(cls), helmert))


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Every row over its norm, C-contiguous; a row of norm at most RESIDUAL_TOL is refused."""
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
    if (norms <= RESIDUAL_TOL).any():
        raise ValueError("eigenvector is numerically zero")
    return np.divide(rows, norms, order="C")


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
    values = np.linalg.eigvalsh(mat) if place is None else _block_values(g, mat, place)
    return SpectrumReport.from_values(values, "adjacency")


def normalized_laplacian_spectrum(g: Graph) -> SpectrumReport:
    """Eigenvalues of the normalized Laplacian, descending, all in [0, 2]: 1 ∓ σ of a bipartite graph's block."""
    mat, place = _laplacian(g, split=True)
    values = np.linalg.eigvalsh(mat) if place is None else 1.0 + _block_values(g, mat, place)
    return SpectrumReport.from_values(values, "normalized_laplacian")


def _fix_signs(rows: np.ndarray) -> None:
    """Negate, in place, every row (one vector a row) whose first entry of modulus over 1e-12 is negative."""
    lead = rows[np.arange(len(rows)), (np.abs(rows) > 1e-12).argmax(axis=1)]
    np.negative(rows, out=rows, where=(lead < -1e-12)[:, None])  # a row without such an entry stays as it is


def _verified_vector(g: Graph, value: float, vec: np.ndarray, norm: float) -> np.ndarray:
    """vec over norm, its norm taken by the caller, sign-fixed, its residual checked on g, read-only: the step of the
    constructor, a lift and a descent.  It writes into a new array, never into vec."""
    if not norm > RESIDUAL_TOL:  # a NaN is refused too
        raise ValueError("eigenvector is numerically zero")
    vec = vec / norm  # before the sign fix, whose 1e-12 is absolute
    if vec[(np.abs(vec) > 1e-12).argmax()] < -1e-12:  # `_fix_signs` of one vector
        np.negative(vec, out=vec)
    residual = _residual(g, value, vec)
    if not residual <= RESIDUAL_TOL:  # so are a NaN value and an infinite entry, whose residual is NaN
        raise ValueError(f"residual {residual:.3e} exceeds tolerance; not an eigenpair")
    vec.flags.writeable = False
    return vec


@dataclass(frozen=True, eq=False)
class EigenPair:
    """A verified adjacency eigenpair, unit norm, sign-fixed, read-only: the constructor, a lift and a descent
    check one pair in O(E) by `_verified_vector`; `adjacency_eigenpairs` checks a whole decomposition."""

    graph: Graph
    value: float
    vector: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=float)
        if vec.shape != (self.graph._order,):
            raise ValueError("eigenvector length must match the vertex count")
        object.__setattr__(self, "vector", _verified_vector(self.graph, self.value, vec, np.sqrt(vec @ vec)))

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
    bipartite graph's block B's twin quotient W given to `svd`, W's singular vectors spread over the classes
    (`_spread`): (u, ±v)/√2 have eigenvalues ±σ, spare columns of U or V and differences in a class (u, 0) or (0, v)
    0.  The matrix or block is certified against the edge array, then every vector normalized, its residual checked
    on the whole matrix or block, and sign-fixed.  The vectors are the read-only rows of one C-contiguous matrix."""
    mat, place, at = _matrix(g)
    entries = [at] if place is not None else [at, at[::-1]]  # the n×n matrix holds each edge twice
    if np.count_nonzero(mat) != len(entries) * len(at[0]) or not all((mat[e] == 1).all() for e in entries):
        raise RuntimeError("dense matrix is not the adjacency of the graph's edges")
    if place is None:
        values, rows = np.linalg.eigh(mat)
        values, rows = values[::-1], _unit_rows(rows.T[::-1])  # one eigenvector per row, values descending
        residual = _residuals(mat, values, rows).max()
    else:
        (p, q), (w, cls0, cls1) = mat.shape, _quotient(g, mat, place)
        left, s, right = np.linalg.svd(w)
        left, right, n, r = _unit_rows(_spread(left.T, cls0)), _unit_rows(_spread(right, cls1)), p + q, s.size
        residual, rows = _block_residuals(mat, s, left, right).max(), np.zeros((n, n))  # by sides: σ, 0, then -σ
        x, y = np.sqrt(0.5) * left[:r], np.sqrt(0.5) * right[:r]
        rows[:r, :p], rows[:r, p:], rows[n - r:, :p], rows[n - r:, p:] = x, y, x[::-1], -y[::-1]
        rows[r:p, :p], rows[p:n - r, p:] = left[r:], right[r:]
        rows, values = rows.take(place, axis=1), _block_values(g, mat, place, s)  # to rank order, C-contiguous
    if not residual <= RESIDUAL_TOL:  # a NaN is refused too
        raise ValueError(f"residual {residual:.3e} exceeds tolerance; not an eigenpair")
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

    fhat, value = ep.vector.take(z._base_ranks), n * ep.value
    norm = np.sqrt(fhat @ fhat)
    if abs(norm - np.sqrt(n)) > RESIDUAL_TOL:
        raise ValueError(
            f"lifted norm {norm:.6f} is not sqrt({n}); the eigenvector touches vertices without product fibers"
        )
    return EigenPair._from_verified(z.product, value, _verified_vector(z.product, value, fhat, norm))


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
    f, value = np.zeros(z.base._order), ep.value / n
    f[over[starts]] = vec[starts]  # 0 above no fiber
    return EigenPair._from_verified(z.base, value, _verified_vector(z.base, value, f, np.sqrt(f @ f)))


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
    if h._order != m:
        raise ValueError(f"label graph must have {m} vertices, the base degree; has {h._order}")
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
