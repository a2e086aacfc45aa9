"""The benchmark's workloads and the closed-form answers their units must match.

Each workload is set up once from a seed, then runs units: one complete
piece of work per unit.  `unit()` calls the program and returns its raw
outputs; `check()` compares them with answers computed here from the
construction's counting and spectral formulas, never by the program.
The formulas hold for every seed.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import math
import random
from collections import Counter
from pathlib import Path

# Calls go through the module attributes, so that spans wrapped around them
# from outside (spans.py) see the benchmark's own calls too.
from zigzag import cli, generators, labeling, product, spectral, tower
from zigzag import io as zio
from zigzag.graphs import Graph
from zigzag.spectral import EigenPair, ZeroCertificate

REL_TOL = 1e-9
ABS_TOL = 1e-8


class Mismatch(Exception):
    """A unit's output disagrees with the closed-form answer."""


def expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def expect_values(what: str, got, want) -> None:
    """Compare two real multisets elementwise after sorting."""
    got, want = sorted(got), sorted(want)
    expect(f"{what} count", len(got), len(want))
    for x, y in zip(got, want):
        if not math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            raise Mismatch(f"{what}: value {x!r}, expected {y!r}")


def hypercube_values(d: int, scale: float = 1.0) -> list:
    """Adjacency spectrum of the d-cube: d - 2k with multiplicity C(d, k)."""
    return [scale * (d - 2 * k) for k in range(d + 1) for _ in range(math.comb(d, k))]


def hypercube_laplacian(d: int) -> list:
    """Normalized-Laplacian spectrum of the d-cube: 2k/d with multiplicity C(d, k)."""
    return [2 * k / d for k in range(d + 1) for _ in range(math.comb(d, k))]


class Tower:
    """The C4/P3 tower to depth 6 through the CLI, stdout captured.

    Level k of the tower over a cycle C with constant label valency n has
    |V(C)| n^(k-1) vertices, |E(C)| n^(2(k-1)) edges, projection cover index
    n^2 and adjacency gap gap(C) n^(k-1).  For C4 and the centre of P3
    (n = 2, gap 2) that is 2^(k+1) vertices, 4^k edges and gap 2^k.
    """

    name = "tower"
    item = "product edges"
    depth = 6

    def __init__(self, seed: int, workdir: Path):
        # The seed renames the four base vertices; the answers do not depend on the names.
        names = random.Random(seed).sample(range(10**6), 4)
        c4 = generators.cycle(4)
        g = Graph(tuple(names), tuple((names[u], names[v]) for u, v in c4.edges))
        h = generators.path(3)
        gpath, hpath = workdir / "c4.json", workdir / "p3.json"
        gpath.write_text(zio.dumps_graph(g), encoding="utf-8")
        hpath.write_text(zio.dumps_graph(h), encoding="utf-8")
        self.argv = ["tower", "-g", str(gpath), "-H", str(hpath), "--constant", "1",
                     "--depth", str(self.depth), "--json"]
        n, levels = 2, range(1, self.depth + 1)
        self.expected = {
            "exit": 0,
            "levels": self.depth,
            "vertices": [4 * n ** (k - 1) for k in levels],
            "edges": [4 * n ** (2 * (k - 1)) for k in levels],
            "cover_index": [None] + [n * n] * (self.depth - 1),
            "gap": [2.0 * n ** (k - 1) for k in levels],
            "verdicts": ["pass"] * 3 * (self.depth - 1),
        }
        self.items = sum(self.expected["edges"][1:])
        self.sizes = {
            f"level{k}": {"vertices": v, "edges": e, "darts": 2 * e}
            for k, v, e in zip(levels, self.expected["vertices"], self.expected["edges"])
        }

    def unit(self):
        out = _stdio.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(self.argv)
        return code, out.getvalue()

    def check(self, result) -> None:
        code, text = result
        want = self.expected
        expect("exit code", code, want["exit"])
        report = json.loads(text)
        levels = report["levels"]
        expect("levels", len(levels), want["levels"])
        for key in ("vertices", "edges", "cover_index"):
            expect(key, [lv[key] for lv in levels], want[key])
        for k, (got, gap) in enumerate(zip([lv["gap"] for lv in levels], want["gap"]), 1):
            if got is None or not math.isclose(got, gap, rel_tol=REL_TOL):
                raise Mismatch(f"level {k} gap: got {got!r}, expected {gap!r}")
        verdicts = [p[key] for p in report["pairs"] for key in ("scaling", "containment", "gap")]
        expect("verdicts", verdicts, want["verdicts"])
        self.sizes["report_json_bytes"] = len(text.encode("utf-8"))


class FlatProducts:
    """Two products with flat ids and seeded per-vertex labels, round-tripped
    through product JSON; case (a) also tracks three Folner arcs.

    With every label of valency n, the product has |V| n vertices and
    |E| n^2 edges and the projection is a cover of index n^2.  An arc of
    the circulant C(512; +-1, +-5) has 2 (1 + 5) = 12 boundary edges, each
    lifting to n^2 = 9 product boundary edges, so 108, which meets the
    bound D^2 12 = 108 for K4 (D = 3) exactly.
    """

    name = "flat_products"
    item = "product edges"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        ga, ha = generators.cayley_cyclic(512, [1, -1, 5, -5]), generators.complete(4)
        gb, hb = generators.hypercube(8), generators.cycle(6)
        # (base, labels, per-vertex label table, |V|, |E|, n, Folner arcs)
        self.cases = [
            (ga, ha, {u: rng.randrange(4) for u in range(512)}, 512, 512 * 4 // 2, 3,
             [list(range(k)) for k in (128, 256, 384)]),
            (gb, hb, {format(i, "08b"): rng.randrange(6) for i in range(256)}, 256, 8 * 128, 2, None),
        ]
        # Per case, in order: the product's vertices and edges, the projection
        # cover index, and (boundary, product size, product boundary, bound, bound held) per arc.
        self.expected = {
            "vertices": [nv * n for _, _, _, nv, _, n, _ in self.cases],
            "edges": [ne * n * n for _, _, _, _, ne, n, _ in self.cases],
            "pi_index": [n * n for _, _, _, _, _, n, _ in self.cases],
            "folner": [[(12, n * len(f), 12 * n * n, 12 * n * n, True) for f in arcs] if arcs else None
                       for _, _, _, _, _, n, arcs in self.cases],
        }
        self.items = sum(self.expected["edges"])
        self.sizes = {
            tag: {"vertices": v, "edges": e, "darts": 2 * e}
            for tag, v, e in zip("ab", self.expected["vertices"], self.expected["edges"])
        }

    def unit(self):
        out = []
        for g, h, table, _, _, _, arcs in self.cases:
            a = labeling.vertex_labeling(g, h, table)
            z = product.zigzag_product(g, h, a)
            counts = (product.product_edge_count_check(z), product.product_valency_check(z))
            index = product.pi_combinatorial_cover_check(z)
            text = zio.dumps_product(z)
            again = zio.dumps_product(zio.loads_product(text))
            folner = tower.folner_product_check(g, h, a, arcs) if arcs else None
            out.append((len(z.product.vertices), len(z.product.edges), counts, index, text, again, folner))
        return out

    def check(self, result) -> None:
        want = self.expected
        expect("cases", len(result), len(self.cases))
        for k, (tag, got) in enumerate(zip("ab", result)):
            nv, ne, counts, index, text, again, folner = got
            expect(f"({tag}) vertices", nv, want["vertices"][k])
            expect(f"({tag}) edges", ne, want["edges"][k])
            expect(f"({tag}) counting checks", counts, (True, True))
            expect(f"({tag}) projection cover index", index, want["pi_index"][k])
            if again != text:
                raise Mismatch(f"({tag}) product JSON re-dump differs from the first dump")
            if want["folner"][k] is not None:
                steps = [(s.boundary_size, s.product_size, s.product_boundary_size, s.bound, s.bound_ok)
                         for s in folner.steps]
                expect(f"({tag}) Folner steps", steps, want["folner"][k])
            self.sizes[tag]["json_bytes"] = len(text.encode("utf-8"))


class SpectralTransport:
    """Eigenpairs of Q7 and of its product with seeded labels over C6, and
    their transport in both directions.

    Every label of C6 has valency n = 2, so the product adjacency factors as
    S A Sᵀ with SᵀS = 2I: its nonzero spectrum is 2 (7 - 2k) with
    multiplicity C(7, k), the other 2^7 eigenvalues are 0, and the product
    is 14-regular, so its normalized Laplacian has 2k/7 (times C(7, k)) and
    1 (times 2^7).
    """

    name = "spectral_transport"
    item = "eigenpairs"
    d = 7

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        d, n = self.d, 2
        self.g, h = generators.hypercube(d), generators.cycle(6)
        table = {format(i, f"0{d}b"): rng.randrange(6) for i in range(2**d)}
        self.z = product.zigzag_product(self.g, h, labeling.vertex_labeling(self.g, h, table))
        nv = 2**d
        self.expected = {
            "base": hypercube_values(d),
            "product": hypercube_values(d, n) + [0.0] * (nv * n - nv),
            "lifted": hypercube_values(d, n),
            "descended": hypercube_values(d),
            "zero_certificates": nv * n - nv,
            "base_laplacian": hypercube_laplacian(d),
            "product_laplacian": hypercube_laplacian(d) + [1.0] * (nv * n - nv),
        }
        # Eigenpairs computed on both graphs, plus those lifted and descended.
        self.items = nv + nv * n + nv + nv
        self.sizes = {
            "base": {"vertices": nv, "edges": d * nv // 2, "darts": d * nv},
            "product": {"vertices": nv * n, "edges": d * nv // 2 * n * n, "darts": d * nv * n * n},
        }

    def unit(self):
        g, z = self.g, self.z
        base = spectral.adjacency_eigenpairs(g)
        prod = spectral.adjacency_eigenpairs(z.product)
        lifted = [spectral.lift_eigenvector(ep, z) for ep in base]
        descended = [spectral.descend_eigenvector(ep, z) for ep in prod]
        spectra = [spectral.adjacency_spectrum(g), spectral.adjacency_spectrum(z.product),
                   spectral.normalized_laplacian_spectrum(g), spectral.normalized_laplacian_spectrum(z.product)]
        return base, prod, lifted, descended, spectra

    def check(self, result) -> None:
        base, prod, lifted, descended, spectra = result
        want = self.expected
        expect_values("base eigenpairs", [ep.value for ep in base], want["base"])
        expect_values("product eigenpairs", [ep.value for ep in prod], want["product"])
        expect_values("lifted eigenpairs", [ep.value for ep in lifted], want["lifted"])
        down = [ep.value for ep in descended if isinstance(ep, EigenPair)]
        zeros = sum(isinstance(ep, ZeroCertificate) for ep in descended)
        expect_values("descended eigenpairs", down, want["descended"])
        expect("zero certificates", zeros, want["zero_certificates"])
        adj_g, adj_z, lap_g, lap_z = (s.eigenvalues for s in spectra)
        expect_values("base spectrum", adj_g, want["base"])
        expect_values("product spectrum", adj_z, want["product"])
        expect_values("base Laplacian", lap_g, want["base_laplacian"])
        expect_values("product Laplacian", lap_z, want["product_laplacian"])
        missing = Counter(round(x, 6) for x in lap_g) - Counter(round(x, 6) for x in lap_z)
        if missing:
            raise Mismatch(f"base Laplacian values missing from the product's: {sorted(missing)}")


WORKLOADS = {cls.name: cls for cls in (Tower, FlatProducts, SpectralTransport)}

# For the self-test: one expected value per workload, and a wrong replacement.
WRONG = {"tower": ("levels", 5), "flat_products": ("pi_index", [9, 5]), "spectral_transport": ("zero_certificates", 127)}
