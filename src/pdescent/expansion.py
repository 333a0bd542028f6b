"""Cheeger constants of 1-skeletons and relative size of cocycle classes.

The Cheeger constant is min |boundary(A)| / |A| over vertex sets A with
0 < |A| <= |V|/2; loops never cross a cut.  The relative size of a class
is the smallest support fraction among its representatives.  For a p-cover
whose deck group sees a class alpha, the cut between vertex-value classes
bounds the cover's Cheeger constant by (|E| / (|V|/p)) * relsize(alpha).

Costs: a heuristic sweep keeps a running cut count, so each sweep order
costs O(E) after the eigenvector; the greedy upper bound on relative size
rescores a vertex from its incident edges, O(deg v + p) per vertex visit,
so one pass over the vertices costs O(E + |V| p).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import Cochain, TwoComplex, coboundary
from .covers import CoveringMap, vertex_values
from .errors import EnumerationCapError, TrivialClassError

__all__ = [
    "SkeletonGraph",
    "cheeger_constant",
    "minimum_support_representative",
    "relative_size",
    "ExpansionReport",
    "expansion_bound_report",
]

MAX_EXACT_VERTICES = 24
RELSIZE_CAP = 2**20


@dataclass(frozen=True)
class SkeletonGraph:
    """An undirected multigraph (loops allowed) given by an edge list."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_complex(cls, K: TwoComplex) -> "SkeletonGraph":
        return cls(num_vertices=K.num_vertices, edges=tuple(K.edges))

    def is_connected(self) -> bool:
        return _reaches_all(_adjacency(self))


def _adjacency(graph: SkeletonGraph) -> list[list[int]]:
    """Neighbour lists with one entry per non-loop edge end."""
    adj = [[] for _ in range(graph.num_vertices)]
    for u, v in graph.edges:
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def _reaches_all(adj: list[list[int]]) -> bool:
    """True when a search from vertex 0 reaches every vertex."""
    if not adj:
        return False
    seen = [False] * len(adj)
    seen[0] = True
    queue = [0]
    for v in queue:
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    return len(queue) == len(adj)


def _sweep_min(adj: list[list[int]], order) -> tuple[int, int]:
    """Best (cut, size) over prefixes of `order` with size <= |V|/2.

    The cut is updated as each vertex joins: its edges to outside
    neighbours start crossing, its edges to inside neighbours stop.
    """
    n = len(adj)
    inside = [False] * n
    cut = 0
    best = None
    for k, v in enumerate(order, start=1):
        if 2 * k > n:
            break
        inside[v] = True
        for w in adj[v]:
            cut += -1 if inside[w] else 1
        if best is None or cut * best[1] < best[0] * k:
            best = (cut, k)
    return best


def cheeger_constant(
    graph: SkeletonGraph,
    mode: str = "exact",
    max_exact_vertices: int = MAX_EXACT_VERTICES,
    seed: int = 0,
    sweeps: int = 8,
) -> Fraction:
    """Cheeger constant of a connected multigraph with at least 2 vertices.

    Exact mode enumerates all cuts (|V| limited); heuristic mode sweeps the
    algebraic-connectivity eigenvector plus seeded random directions and
    returns an upper bound only.
    """
    n = graph.num_vertices
    if n < 2:
        raise ValueError("Cheeger constant needs at least 2 vertices")
    adj = _adjacency(graph)
    if not _reaches_all(adj):
        raise ValueError("graph is not connected")
    if mode == "exact":
        if n > max_exact_vertices:
            raise EnumerationCapError(
                f"exact mode limited to {max_exact_vertices} vertices, got {n}"
            )
        plain = [(u, v) for u, v in graph.edges if u != v]
        best_cut, best_size = None, 1
        chunk = 1 << 16
        half = n // 2
        for start in range(1, 1 << n, chunk):
            stop = min(start + chunk, 1 << n)
            masks = np.arange(start, stop, dtype=np.int64)
            bits = (masks[:, None] >> np.arange(n)) & 1
            sizes = bits.sum(axis=1)
            keep = (sizes > 0) & (sizes <= half)
            if not keep.any():
                continue
            bits = bits[keep]
            sizes = sizes[keep]
            cuts = np.zeros(len(sizes), dtype=np.int64)
            for u, v in plain:
                cuts += bits[:, u] != bits[:, v]
            for c, s in zip(cuts, sizes):
                if best_cut is None or int(c) * best_size < best_cut * int(s):
                    best_cut, best_size = int(c), int(s)
        return Fraction(best_cut, best_size)
    if mode == "heuristic":
        lap = np.zeros((n, n), dtype=float)
        for u, v in graph.edges:
            if u == v:
                continue
            lap[u, u] += 1
            lap[v, v] += 1
            lap[u, v] -= 1
            lap[v, u] -= 1
        _, vecs = np.linalg.eigh(lap)
        orders = [np.argsort(vecs[:, 1], kind="stable").tolist()]
        rng = np.random.default_rng(seed)
        for _ in range(sweeps):
            direction = rng.standard_normal(n)
            orders.append(np.argsort(direction, kind="stable").tolist())
        best = None
        for order in orders:
            cand = _sweep_min(adj, order)
            if cand is not None and (best is None or cand[0] * best[1] < best[0] * cand[1]):
                best = cand
        return Fraction(best[0], best[1])
    raise ValueError(f"unknown mode {mode!r}")


def _check_nontrivial(K: TwoComplex, alpha: Cochain):
    if alpha.complex is not K:
        raise ValueError("cochain does not live on K")
    if not alpha.is_cocycle():
        raise ValueError("relative size needs a cocycle")
    if alpha.has_trivial_class():
        raise TrivialClassError("class is a coboundary; relative size would be 0")


def minimum_support_representative(
    K: TwoComplex, alpha: Cochain, cap: int = RELSIZE_CAP
) -> tuple[Cochain, int]:
    """The representative alpha + df of smallest support, by full enumeration.

    Potentials are pinned to 0 at the basepoint; p^(|V|-1) assignments are
    enumerated, so the cap bounds the feasible vertex count.
    """
    _check_nontrivial(K, alpha)
    p = alpha.p
    free = [v for v in range(K.num_vertices) if v != K.basepoint]
    count = p ** len(free)
    if count > cap:
        raise EnumerationCapError(
            f"exact relative size needs {p}**{len(free)} potentials, over cap {cap}"
        )
    init, term = K.arrays.init, K.arrays.term
    best_size, best_f = None, None
    chunk = 1 << 12
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        idx = np.arange(start, stop, dtype=np.int64)
        pots = np.zeros((stop - start, K.num_vertices), dtype=np.int64)
        q = idx
        for k in range(len(free) - 1, -1, -1):
            pots[:, free[k]] = q % p
            q = q // p
        reps = (alpha.values[None, :] + pots[:, term] - pots[:, init]) % p
        sizes = (reps != 0).sum(axis=1)
        j = int(np.argmin(sizes))
        if best_size is None or int(sizes[j]) < best_size:
            best_size = int(sizes[j])
            best_f = pots[j].copy()
    if best_size == 0:
        raise TrivialClassError("class is a coboundary; relative size would be 0")
    rep = Cochain(K, p, (alpha.values + coboundary(K, best_f, p).values) % p)
    return rep, best_size


def _greedy_descent(K: TwoComplex, alpha: Cochain) -> tuple[Cochain, int]:
    """Single-vertex descent on |supp(alpha + df)| from f = 0.

    Vertices are visited in index order (the basepoint stays 0) and each
    takes the value in 0..p-1 that strictly lowers the support most, the
    first such on ties; passes repeat until none improves.  Moving f(v)
    only changes the residues of v's non-loop edges, and each of those is
    zero for exactly one value of f(v).  With hits[val] of them zero at
    val, setting f(v) = val changes the support by hits[f(v)] - hits[val].
    """
    p = alpha.p
    init, term = K.arrays.init, K.arrays.term
    vals = alpha.values.tolist()
    # per vertex: (other end w, offset); the edge's residue is zero when f(v) = f(w) + offset
    incident = [[] for _ in range(K.num_vertices)]
    for e, (u, v) in enumerate(K.edges):
        if u != v:
            incident[u].append((v, vals[e]))
            incident[v].append((u, -vals[e]))
    f = [0] * K.num_vertices
    best = int(np.count_nonzero(alpha.values))
    improved = True
    while improved:
        improved = False
        for v in range(K.num_vertices):
            if v == K.basepoint:
                continue
            hits = [0] * p
            for w, offset in incident[v]:
                hits[(f[w] + offset) % p] += 1
            orig = f[v]
            base = best + hits[orig]
            for val in range(p):
                s = base - hits[val]
                if s < best:
                    best = s
                    orig = val
                    improved = True
            f[v] = orig
    f = np.array(f, dtype=np.int64)
    reps = (alpha.values + f[term] - f[init]) % p
    return Cochain(K, p, reps), best


def relative_size(
    K: TwoComplex, alpha: Cochain, mode: str = "exact", cap: int = RELSIZE_CAP
) -> Fraction:
    """min |supp(alpha + df)| / |E| over vertex potentials f.

    Exact mode enumerates all potentials; upper mode runs a greedy
    single-vertex descent and only upper-bounds the true value.
    """
    if K.num_edges == 0:
        raise ValueError("relative size needs at least one edge")
    if mode == "exact":
        _, size = minimum_support_representative(K, alpha, cap=cap)
        return Fraction(size, K.num_edges)
    if mode == "upper":
        _check_nontrivial(K, alpha)
        _, size = _greedy_descent(K, alpha)
        return Fraction(size, K.num_edges)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class ExpansionReport:
    """Outcome of the cover expansion bound h(total) <= (|E|/(|V|/p)) * relsize."""

    cheeger: Fraction
    bound: Fraction
    relsize: Fraction
    fiber_counts: tuple[int, ...]
    zero_cut: int
    degree_times_support: int
    holds: bool
    cut_holds: bool


def expansion_bound_report(
    cov: CoveringMap, alpha: Cochain, cheeger_mode: str = "exact", cap: int = RELSIZE_CAP
) -> ExpansionReport:
    """Check the expansion bound of a p-cover against a defining class.

    alpha must be a base cocycle with nontrivial class whose vertex values
    are defined on the cover.  Uses exact relative size on the base and the
    requested Cheeger mode on the total 1-skeleton; the reported Cheeger
    value is the smaller of that and the zero class's cut ratio, which
    leaves exact mode unchanged and tightens the heuristic upper bound.
    """
    p = alpha.p
    _check_nontrivial(cov.base, alpha)
    rep, size = minimum_support_representative(cov.base, alpha, cap=cap)
    relsize = Fraction(size, cov.base.num_edges)
    # the cut argument needs the value table of the minimizing representative
    values = vertex_values(cov, rep)
    counts = tuple(int(x) for x in np.bincount(values, minlength=p))
    graph = SkeletonGraph.from_complex(cov.total)
    bound = Fraction(cov.base.num_edges * p, cov.base.num_vertices) * relsize
    # loops never cross: both ends share one value
    zero = values == 0
    zero_cut = int(np.count_nonzero(zero[cov.total.arrays.init] != zero[cov.total.arrays.term]))
    # the zero class has |V|/p <= |V|/2 vertices, so its cut is one of the
    # cuts h minimises over: a candidate the heuristic sweep may miss
    h = min(cheeger_constant(graph, mode=cheeger_mode), Fraction(zero_cut, counts[0]))
    return ExpansionReport(
        cheeger=h,
        bound=bound,
        relsize=relsize,
        fiber_counts=counts,
        zero_cut=zero_cut,
        degree_times_support=cov.degree * size,
        holds=h <= bound,
        cut_holds=zero_cut <= cov.degree * size,
    )
