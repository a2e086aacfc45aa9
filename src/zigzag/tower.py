"""Iterated zig-zag towers and Folner-style boundary checks.

Each tower level is the product of the previous one with a fixed label
graph, the labeling being pulled back along the projection, a combinatorial
cover of index m^2: the nonzero adjacency spectrum scales by m at each step
and the normalized adjacency's stays, so only the first level is eigensolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, VertexMap, _lookup, _square_cover, vertex_key
from .labeling import (
    HLabeling,
    image_valency,
    is_locally_constant,
    pullback_labeling,
    restrict_labeling,
)
from .product import projection, zigzag_product
from .spectral import (
    MATCH_TOL,
    SpectrumReport,
    adjacency_spectrum,
    multisets_match,
    nonzero_eigenvalues,
    normalized_laplacian_spectrum,
    spectrum_contained,
)

_MAX_EDGES = 2**24  # edges a tower level may have: level 12 of C4/P3 is built, level 13 is refused


@dataclass(frozen=True)
class TowerConfig:
    """Growth limits: the vertex budget, and the size cap on level 1, the one level eigensolved (over it, none)."""

    budget: int = 100_000
    spectral_cap: int = 3000

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError(f"tower budget must be at least 1 vertex, got {self.budget}")


@dataclass(frozen=True, eq=False)
class TowerLevel:
    """One level of the tower, with its verified construction data.

    pi and cover_index are absent at the first level.  Spectra are absent at every level when
    level 1 is over the cap, and the Laplacian at a level 1 with isolated vertices.
    """

    index: int
    graph: Graph
    labeling: HLabeling
    pi: VertexMap | None
    cover_index: int | None
    spectrum: SpectrumReport | None
    laplacian: SpectrumReport | None


@dataclass(frozen=True, eq=False)
class TowerBuild:
    levels: tuple
    valency: int
    requested_depth: int
    truncated: bool


def _level_one_values(g: Graph):
    """The tower's eigensolve: the nonzero spectra of level 1's adjacency A and of its normalized adjacency
    N = D^{-1/2}·A·D^{-1/2} on the vertices with edges, that is A/d if d-regular, else I - their Laplacian."""
    spec, deg = adjacency_spectrum(g), g._degrees
    mu = (np.array(spec.eigenvalues) / deg[0] if deg.min() == deg.max() else
          1 - np.array(normalized_laplacian_spectrum(g._on_ranks(np.flatnonzero(deg), g._edge_ranks)).eigenvalues))
    return np.array(nonzero_eigenvalues(spec)), mu[np.abs(mu) > MATCH_TOL]


def _level_spectra(g: Graph, scale: int, values):
    """Level k's spectra, scale = m^(k-1): `_certify`'s A_k = S·A_{k-1}·Sᵀ and deg_k = m·deg_{k-1} give
    N_k = S·N_{k-1}·Sᵀ/m, so A's nonzero spectrum scales by m and N's stays; then zeros of A, ones of I - N."""
    if values is None:
        return None, None
    (adj, mu), n = values, len(g.vertices)
    spec = SpectrumReport.from_values(np.concatenate((scale * adj, np.zeros(n - adj.size))), "adjacency")
    lap = np.concatenate((1 - mu, np.ones(n - mu.size)))
    return spec, SpectrumReport.from_values(lap, "normalized_laplacian") if g._degrees.all() else None


def _certify(pi: VertexMap, below: Graph, m: int) -> None:
    """Certify A(domain) = S·A(below)·Sᵀ, S pi's fiber indicator; as SᵀS = m·I, the nonzero spectrum scales by m.
    `_square_cover` proves x ~ y iff pi(x) ~ pi(y), and the image carries every edge of below (so it drops only
    isolated vertices)."""
    proved, counts = _square_cover(pi, m)
    carried, edges = len(pi.codomain._edge_ranks), len(below._edge_ranks)
    if not proved or carried != edges:
        raise RuntimeError(f"projection not certified for m = {m}: {counts}, "
                           f"{carried} of the {edges} edges below carried")


def build_tower(g: Graph, h: Graph, a: HLabeling, depth: int, config: TowerConfig = TowerConfig()) -> TowerBuild:
    """Build levels 1..depth, verifying the invariants at every step.

    Each new labeling is the pullback of the previous one along the projection; it stays locally
    constant with the same image valency, and the projection is certified (`_certify`).  So only
    level 1 is eigensolved, and every level's spectra follow from level 1's (`_level_spectra`).
    Construction stops early, with the truncated flag set, when the next level would exceed the
    vertex budget, and raises ValueError above `_MAX_EDGES` edges; both are counted before it is built.
    """
    if depth < 1:
        raise ValueError("tower depth must be at least 1")
    if a.base != g or a.labels != h:
        raise ValueError("labeling does not tie the given base and label graphs")
    if not is_locally_constant(a):
        raise ValueError("tower construction needs a locally constant labeling")
    m = image_valency(a)

    values = _level_one_values(g) if len(g.vertices) <= config.spectral_cap else None
    levels = [TowerLevel(1, g, a, None, None, *_level_spectra(g, 1, values))]
    truncated = False
    while len(levels) < depth:
        current = levels[-1]
        # From the labels: a vertex (u, i) per neighbour i of u's label, deg(l_u)·deg(l_v) edges per base edge uv.
        ranks = current.labeling._vertex_ranks
        size = int(h._degrees[ranks[ranks >= 0]].sum())
        if size > config.budget:
            truncated = True
            break
        edges = int(h._degrees[current.labeling._label_ranks].prod(axis=1).sum())
        if edges > _MAX_EDGES:
            raise ValueError(f"tower level {len(levels) + 1} would have {edges} edges, over the limit of {_MAX_EDGES}")
        z = zigzag_product(current.graph, h, current.labeling)
        if len(z.product.vertices) != size:
            raise RuntimeError(f"product has {len(z.product.vertices)} vertices, the labels give {size}")
        pi = projection(z)
        _certify(pi, current.graph, m)
        source = current.labeling
        if pi.codomain != current.graph:
            source = restrict_labeling(current.labeling, pi.codomain.vertices)
        nxt = pullback_labeling(source, pi)
        if not is_locally_constant(nxt) or image_valency(nxt) != m:
            raise RuntimeError("pullback lost local constancy or changed the image valency")
        # Spent: nothing reads this level's edge images (its base edges) or the lower level's edge codes again.
        for obj, spent in ((pi, "_edge_images"), (z, "_base_edges"), (current.graph, "_edge_codes")):
            obj.__dict__.pop(spent, None)
        spectra = _level_spectra(z.product, m ** len(levels), values)
        levels.append(TowerLevel(len(levels) + 1, z.product, nxt, pi, m * m, *spectra))
    return TowerBuild(tuple(levels), m, depth, truncated)


@dataclass(frozen=True)
class PairVerdicts:
    """Checks between consecutive levels; values are pass, fail or skipped."""

    lower: int
    upper: int
    scaling: str
    containment: str
    gap: str


@dataclass(frozen=True, eq=False)
class TowerReport:
    valency: int
    levels: tuple
    pairs: tuple

    @property
    def all_ok(self) -> bool:
        return not any("fail" in (p.scaling, p.containment, p.gap) for p in self.pairs)


@dataclass(frozen=True)
class LevelSummary:
    index: int
    vertices: int
    edges: int
    rho: float | None
    lambda2: float | None
    gap: float | None
    cover_index: int | None
    spectra_skipped: bool


def _level_report(build: TowerBuild, pairs: tuple = ()) -> TowerReport:
    """A report of the build's level summaries and the given pair verdicts."""
    summaries = []
    for lv in build.levels:
        g, s = lv.graph, lv.spectrum
        radii = (s.rho, s.lambda2, s.gap) if s else (None, None, None)
        summaries.append(LevelSummary(lv.index, len(g.vertices), len(g._edge_ranks), *radii, lv.cover_index, s is None))
    return TowerReport(build.valency, tuple(summaries), tuple(pairs))


def _tower_report(build: TowerBuild) -> TowerReport:
    """The report of any build: the spectrum check's from two levels on,
    else the level summaries alone."""
    return tower_spectrum_check(build) if len(build.levels) > 1 else _level_report(build)


def tower_spectrum_check(build: TowerBuild) -> TowerReport:
    """Verify the spectral claims between consecutive levels.

    Per pair: the nonzero adjacency spectrum scales by the valency m, the Laplacian spectrum of the
    lower level is contained in the upper one, and the spectral gap scales by m whenever both gaps
    exist, within MATCH_TOL·max(1, rho).  These restate `build_tower`'s certificate; the tests check it densely.
    """
    if len(build.levels) < 2:
        raise ValueError("spectrum check needs at least two levels")
    m = build.valency

    pairs = []
    for lo, hi in zip(build.levels, build.levels[1:]):
        a, b, checks = lo.spectrum, hi.spectrum, (None, None, None)  # None: skipped
        if a and b:
            tol = MATCH_TOL * max(1.0, b.rho)
            checks = (multisets_match([m * x for x in nonzero_eigenvalues(a)], nonzero_eigenvalues(b), tol),
                      lo.laplacian and hi.laplacian and spectrum_contained(lo.laplacian, hi.laplacian),
                      None if a.gap is None or b.gap is None else abs(b.gap - m * a.gap) <= tol)
        verdicts = ({True: "pass", False: "fail"}.get(ok, "skipped") for ok in checks)
        pairs.append(PairVerdicts(lo.index, hi.index, *verdicts))
    return _level_report(build, pairs)


@dataclass(frozen=True)
class FolnerStep:
    """Boundary bookkeeping for one subset of the chain."""

    subset: tuple
    size: int
    boundary_size: int
    ratio: Fraction
    product_size: int
    product_boundary_size: int
    product_ratio: Fraction | None
    bound: int
    bound_ok: bool


@dataclass(frozen=True, eq=False)
class FolnerReport:
    max_label_degree: int
    steps: tuple

    @property
    def all_ok(self) -> bool:
        return all(s.bound_ok for s in self.steps)


def folner_product_check(g: Graph, h: Graph, a: HLabeling, chain) -> FolnerReport:
    """Track boundary ratios of a nested chain through the product.

    For each subset F the product of the induced subgraph (with restricted
    labeling) sits inside the full product; its boundary there is at most
    D^2 times the boundary of F, for D the maximum label-graph degree.  The
    product size is counted directly rather than assumed to be |F| * |V(h)|,
    which only holds when every label vertex is used.
    """
    if a.base != g or a.labels != h:
        raise ValueError("labeling does not tie the given base and label graphs")
    sets = [tuple(sorted(set(f), key=vertex_key)) for f in chain]
    for prev, f in zip([()] + sets, sets):
        if not f:
            raise ValueError("chain subsets must be nonempty")
        if not set(prev) <= set(f):
            raise ValueError("chain is not nested: each subset must contain the previous one")

    z, nh = zigzag_product(g, h, a), len(h.vertices)
    d_max = h.max_degree()
    steps = []
    for f in sets:
        sub_labeling = restrict_labeling(a, f)  # refuses a vertex outside g, or a subset member that is no id
        keep = np.fromiter(map(g._rank.__getitem__, sub_labeling.base.vertices), np.intp)
        zf = zigzag_product(sub_labeling.base, h, sub_labeling)
        # (u, i) of zf, coded over the induced subgraph's ranks, is coded over g's by the rank u has in g.
        codes = keep[zf._vertex_codes // nh] * nh + zf._vertex_codes % nh
        at, found = _lookup(z._vertex_codes, codes)
        if not found.all():
            raise RuntimeError("restricted product escaped the full product")
        bd, pbd = int(np.count_nonzero(g._cut(keep))), int(np.count_nonzero(z.product._cut(at)))
        bound, pv = d_max * d_max * bd, len(codes)
        steps.append(FolnerStep(subset=f, size=len(f), boundary_size=bd, ratio=Fraction(bd, len(f)), product_size=pv,
                                product_boundary_size=pbd, product_ratio=Fraction(pbd, pv) if pv else None,
                                bound=bound, bound_ok=pbd <= bound))
    return FolnerReport(d_max, tuple(steps))
