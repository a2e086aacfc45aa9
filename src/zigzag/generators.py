"""Deterministic generators for the standard graphs used as fixtures."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .graphs import Graph, _distinct

# The most vertices plus edges a generator builds: four times the edges of a level-10 C4/P3 tower.
_MAX_SIZE = 2**22


def _check_size(kind: str, params, size: int) -> None:
    """Refuse, before anything is built, a graph of more than _MAX_SIZE vertices plus edges."""
    if size > _MAX_SIZE:
        raise ValueError(f"{kind} {' '.join(map(str, params))} would have more than {_MAX_SIZE} vertices plus edges")


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    _check_size("cycle", (n,), 2 * n)
    return Graph._from_ranks(tuple(range(n)), np.r_[0, 0:n - 1], np.r_[1, n - 1, 2:n])  # (0, 1), (0, n-1), (1, 2), ...


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs at least 1 vertex, got {n}")
    _check_size("path", (n,), 2 * n - 1)
    return Graph._from_ranks(tuple(range(n)), np.arange(n - 1), np.arange(1, n))


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs at least 1 vertex, got {n}")
    _check_size("complete", (n,), n * (n + 1) // 2)
    return Graph._from_ranks(tuple(range(n)), *np.triu_indices(n, 1))


def hypercube(d: int) -> Graph:
    """d-dimensional hypercube on bitstring atoms of length d, which sort as their numbers."""
    if d < 1:
        raise ValueError(f"hypercube needs dimension at least 1, got {d}")
    _check_size("hypercube", (d,), (d + 2) << (min(d, 64) - 1))  # 2^d + d·2^(d-1); past d = 64, any value over
    i, bit = np.nonzero((np.arange(1 << d)[:, None] >> np.arange(d) & 1) == 0)  # i ~ i | 2^bit, each bit not in i
    return Graph._from_ranks(tuple(format(k, f"0{d}b") for k in range(2**d)), i, i | 1 << bit)


def cayley_cyclic(n: int, generators: Iterable[int]) -> Graph:
    """Cayley graph of Z_n with a symmetric generating set: i ~ i+s mod n.

    The set must avoid 0 mod n and be closed under negation, otherwise the
    result would need loops or directed edges.
    """
    if n < 1:
        raise ValueError(f"cyclic group order must be positive, got {n}")
    gens = {s % n for s in generators}
    if 0 in gens:
        raise ValueError("generator 0 (mod n) would create loops")
    missing = {s for s in gens if (n - s) % n not in gens}
    if missing:
        raise ValueError(f"generating set not closed under negation mod {n}: missing inverses for {sorted(missing)}")
    _check_size("cayley_cyclic", (n, *sorted(gens)), n + n * len(gens) // 2)
    i = np.arange(n).repeat(len(gens))
    j = (i + np.tile(sorted(gens), n).astype(np.intp)) % n  # each edge {i, j} twice, or once if j - i = n/2
    return Graph._from_ranks(tuple(range(n)), *np.divmod(_distinct(np.minimum(i, j) * n + np.maximum(i, j)), n))


KINDS = ("cycle", "path", "complete", "hypercube", "cayley_cyclic")


def generate(kind: str, params: Sequence[int]) -> Graph:
    """Dispatch by kind name; params are the integer arguments in order."""
    params = [int(p) for p in params]
    one_param = {"cycle": cycle, "path": path, "complete": complete, "hypercube": hypercube}
    if kind in one_param:
        (n,) = params
        return one_param[kind](n)
    if kind == "cayley_cyclic":
        n, *gens = params
        return cayley_cyclic(n, gens)
    raise ValueError(f"unknown graph kind {kind!r}; expected one of {KINDS}")
