"""Iterated zig-zag towers and Folner-style boundary checks.

Each tower level is the product of the previous one with a fixed label
graph, the labeling being pulled back along the projection.  The projection
chain gives combinatorial covers of index m^2 and the adjacency spectrum is
rescaled by m at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, VertexMap, boundary, check_combinatorial_cover, vertex_key
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


@dataclass(frozen=True)
class TowerConfig:
    """Growth limits: total vertex budget and per-level eigensolve cap."""

    budget: int = 100_000
    spectral_cap: int = 3000

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError(f"tower budget must be at least 1 vertex, got {self.budget}")


@dataclass(frozen=True, eq=False)
class TowerLevel:
    """One level of the tower, with its verified construction data.

    pi and cover_index are absent at the first level.  Spectra are absent
    above the eigensolve cap (and the Laplacian also when isolated vertices
    make it undefined).
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


def _level_spectra(g: Graph, cap: int):
    if len(g.vertices) > cap or not g.vertices:
        return None, None
    spec, deg = adjacency_spectrum(g), g._degrees
    if deg.min() == deg.max() > 0:  # d-regular: the normalized Laplacian is I - A/d, so one eigensolve serves
        return spec, SpectrumReport.from_values([1 - x / deg[0] for x in spec.eigenvalues], "normalized_laplacian")
    return spec, normalized_laplacian_spectrum(g) if deg.all() else None


def build_tower(g: Graph, h: Graph, a: HLabeling, depth: int, config: TowerConfig = TowerConfig()) -> TowerBuild:
    """Build levels 1..depth, verifying the invariants at every step.

    Each new labeling is the pullback of the previous one along the
    projection; it stays locally constant with the same image valency, and
    the projection is checked to be a combinatorial cover of index m^2.
    Construction stops early, with the truncated flag set, when the next
    level would exceed the vertex budget; its size is counted from the
    labels before it is built.
    """
    if depth < 1:
        raise ValueError("tower depth must be at least 1")
    if a.base != g or a.labels != h:
        raise ValueError("labeling does not tie the given base and label graphs")
    if not is_locally_constant(a):
        raise ValueError("tower construction needs a locally constant labeling")
    m = image_valency(a)

    spec, lap = _level_spectra(g, config.spectral_cap)
    levels = [TowerLevel(1, g, a, None, None, spec, lap)]
    truncated = False
    while len(levels) < depth:
        current = levels[-1]
        # One product vertex (u, i) per neighbour i of the label of each non-isolated u.
        ranks = current.labeling._vertex_ranks
        size = int(h._degrees[ranks[ranks >= 0]].sum())
        if size > config.budget:
            truncated = True
            break
        z = zigzag_product(current.graph, h, current.labeling)
        if len(z.product.vertices) != size:
            raise RuntimeError(f"product has {len(z.product.vertices)} vertices, the labels give {size}")
        pi = projection(z)
        cov = check_combinatorial_cover(pi)
        if not cov:
            raise RuntimeError(f"projection is not a combinatorial cover: {cov.violation}")
        if cov.index != m * m:
            raise RuntimeError(f"projection cover index {cov.index}, expected {m * m}")
        source = current.labeling
        if pi.codomain != current.graph:
            source = restrict_labeling(current.labeling, pi.codomain.vertices)
        nxt = pullback_labeling(source, pi)
        if not is_locally_constant(nxt) or image_valency(nxt) != m:
            raise RuntimeError("pullback lost local constancy or changed the image valency")
        spec, lap = _level_spectra(z.product, config.spectral_cap)
        levels.append(TowerLevel(len(levels) + 1, z.product, nxt, pi, cov.index, spec, lap))
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
        return not any(
            "fail" in (p.scaling, p.containment, p.gap) for p in self.pairs
        )


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
    summaries = tuple(
        LevelSummary(
            lv.index,
            len(lv.graph.vertices),
            len(lv.graph._edge_ranks),
            lv.spectrum.rho if lv.spectrum else None,
            lv.spectrum.lambda2 if lv.spectrum else None,
            lv.spectrum.gap if lv.spectrum else None,
            lv.cover_index,
            lv.spectrum is None,
        )
        for lv in build.levels
    )
    return TowerReport(build.valency, summaries, tuple(pairs))


def _tower_report(build: TowerBuild) -> TowerReport:
    """The report of any build: the spectrum check's from two levels on,
    else the level summaries alone."""
    return tower_spectrum_check(build) if len(build.levels) > 1 else _level_report(build)


def tower_spectrum_check(build: TowerBuild) -> TowerReport:
    """Verify the spectral claims between consecutive levels.

    Per pair: the nonzero adjacency spectrum scales by the valency m, the
    Laplacian spectrum of the lower level is contained in the upper one, and
    the spectral gap scales by m whenever both gaps exist.
    """
    if len(build.levels) < 2:
        raise ValueError("spectrum check needs at least two levels")
    m = build.valency

    pairs = []
    for lo, hi in zip(build.levels, build.levels[1:]):
        if lo.spectrum is None or hi.spectrum is None:
            pairs.append(PairVerdicts(lo.index, hi.index, "skipped", "skipped", "skipped"))
            continue
        scaled = [m * x for x in nonzero_eigenvalues(lo.spectrum)]
        scaling = "pass" if multisets_match(scaled, nonzero_eigenvalues(hi.spectrum)) else "fail"
        if lo.laplacian is None or hi.laplacian is None:
            containment = "skipped"
        else:
            containment = "pass" if spectrum_contained(lo.laplacian, hi.laplacian) else "fail"
        if lo.spectrum.gap is None or hi.spectrum.gap is None:
            gap = "skipped"
        else:
            gap = "pass" if abs(hi.spectrum.gap - m * lo.spectrum.gap) <= MATCH_TOL else "fail"
        pairs.append(PairVerdicts(lo.index, hi.index, scaling, containment, gap))
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
    prev: set = set()
    for f in sets:
        fs = set(f)
        if not fs:
            raise ValueError("chain subsets must be nonempty")
        if not prev <= fs:
            raise ValueError("chain is not nested: each subset must contain the previous one")
        prev = fs

    z = zigzag_product(g, h, a)
    product_vertices = set(z.product.vertices)
    d_max = h.max_degree()
    steps = []
    for f in sets:
        fs = set(f)
        bd = boundary(fs, g)
        sub_labeling = restrict_labeling(a, fs)
        zf = zigzag_product(sub_labeling.base, h, sub_labeling)
        pv = set(zf.product.vertices)
        if not pv <= product_vertices:
            raise RuntimeError("restricted product escaped the full product")
        pbd = boundary(pv, z.product)
        bound = d_max * d_max * len(bd)
        steps.append(
            FolnerStep(
                subset=f,
                size=len(fs),
                boundary_size=len(bd),
                ratio=Fraction(len(bd), len(fs)),
                product_size=len(pv),
                product_boundary_size=len(pbd),
                product_ratio=Fraction(len(pbd), len(pv)) if pv else None,
                bound=bound,
                bound_ok=len(pbd) <= bound,
            )
        )
    return FolnerReport(d_max, tuple(steps))
