"""Cheeger constants of 1-skeletons and relative size of cocycle classes.

The Cheeger constant is min |boundary(A)| / |A| over vertex sets A with
0 < |A| <= |V|/2; loops never cross a cut.  The relative size of a class
is the smallest support fraction among its representatives.  For a p-cover
whose deck group sees a class alpha, the cut between vertex-value classes
bounds the cover's Cheeger constant by (|E| / (|V|/p)) * relsize(alpha).

Costs: both diagnostics read the edge-end table of the graph or complex
(`EdgeEnds`, built once per instance; the table runs its connectivity
search once, on first read).  The heuristic applies the Laplacian from the
table, never as a dense matrix: k Lanczos steps find its first sweep order
in O(k*E) time plus O(k^2*V) for reorthogonalisation, and hold a k x V
basis (k ~ 40 at V = 256, ~300 at V = 16384 on the rank-2 towers).  Every
prefix cut of all its sweep orders then comes from one pass of array
operations, O(E) per order.  The greedy upper bound on relative size
scores a vertex in O(p) from a table of V*p hit counts, and a move updates
the rows of the moved vertex's neighbours in O(deg v); the table is built
only while V*p is at most the edge-end count plus V, and above that (large
p) a scoring counts the values the vertex's edge ends hit, in O(deg v).  The
first pass scores every vertex, and later passes only those with a
neighbour that moved since their last scoring.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .complexes import Cochain, EdgeEnds, TwoComplex, coboundary
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
SWEEPS = 8
TOL = 1e-12
RELSIZE_CAP = 2**20


class SkeletonGraph:
    """An undirected multigraph (loops allowed) given by an edge list.

    `from_complex` gives the 1-skeleton of a complex without an edge list:
    it shares the complex's edge-end table, and `edges` reads the
    complex's edge tuples only when it is read.
    """

    def __init__(self, num_vertices: int, edges):
        self.num_vertices = num_vertices
        self.edges = tuple(edges)  # shadows the cached property below

    @classmethod
    def from_complex(cls, K: TwoComplex) -> "SkeletonGraph":
        """The 1-skeleton of K, sharing K's edge-end table instead of rebuilding it."""
        graph = cls.__new__(cls)
        graph.num_vertices, graph._complex = K.num_vertices, K
        graph.__dict__["edge_ends"] = K.edge_ends  # where the cached property keeps it
        return graph

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """(u, v) of each edge; set by the constructor, or read from the complex."""
        return self._complex.edges

    @cached_property
    def edge_ends(self) -> EdgeEnds:
        """The non-loop edge ends, sorted by (vertex, edge index)."""
        pairs = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        return EdgeEnds.of(self.num_vertices, pairs[:, 0], pairs[:, 1])

    def is_connected(self) -> bool:
        return self.edge_ends.reaches_all


def _sweep_min(ends: EdgeEnds, orders) -> tuple[int, int] | None:
    """The first best (cut, size) over the prefixes of each order with size <= |V|/2.

    Taking pos as an order's inverse permutation, a non-loop edge crosses
    the prefix of size k exactly when min(pos) < k <= max(pos), so one
    difference of counts and a prefix sum give every prefix cut at once.
    Orders are scanned in turn and sizes upwards; a later pair wins only
    with a strictly smaller ratio, compared exactly.  None when there is no
    such prefix (fewer than 2 vertices).
    """
    orders = np.asarray(orders, dtype=np.int64).reshape(-1, len(ends.offsets) - 1)
    m, n = orders.shape
    pos = np.empty_like(orders)
    pos[np.arange(m)[:, None], orders] = np.arange(n)
    once = ends.sign > 0  # each non-loop edge once, seen from its init end
    a, b = pos[:, ends.vertex[once]], pos[:, ends.other[once]]
    row = np.arange(m)[:, None] * (n + 1)
    starts = np.bincount((row + np.minimum(a, b) + 1).ravel(), minlength=m * (n + 1))
    stops = np.bincount((row + np.maximum(a, b) + 1).ravel(), minlength=m * (n + 1))
    cuts = np.cumsum((starts - stops).reshape(m, n + 1), axis=1)[:, 1 : n // 2 + 1].ravel()
    sizes = np.tile(np.arange(1, n // 2 + 1), m)
    if not sizes.size:
        return None
    i = _first_min_ratio(cuts, sizes)
    return int(cuts[i]), int(sizes[i])


def _first_min_ratio(cuts: np.ndarray, sizes: np.ndarray) -> int:
    """The first index of the least cuts/sizes ratio (sizes > 0), compared exactly."""
    # the float argmin is a guess; step to a strictly smaller ratio until none is left
    i = int(np.argmin(cuts / sizes))
    while (smaller := cuts * sizes[i] < cuts[i] * sizes).any():
        i = int(np.argmax(smaller))
    return int(np.argmax(cuts * sizes[i] == cuts[i] * sizes))


def _lambda2_projection(ends: EdgeEnds, start: np.ndarray) -> np.ndarray:
    """The projection of start on the Laplacian's lambda_2 eigenspace, up to a positive factor.

    Lanczos on the Laplacian L of a connected graph with at least 2
    vertices, restricted to the complement of the constants and started
    from start minus its mean.  Its Krylov space meets each eigenspace in
    the one direction of start's projection on it, so the Ritz vector of
    the smallest Ritz value tends to that projection for lambda_2, however
    large its multiplicity, and depends on no choice of eigenbasis.  Each
    step applies L = D - A from the edge-end table, then twice deflates the
    constants and reorthogonalises against every earlier vector, and
    deflates the constants once more: deflating only before the
    reorthogonalisation lets rounding drift back to the constants.  The
    iteration stops when the Ritz residual beta_j * |s_last| or beta_j
    itself is at most TOL * 2 * maxdeg (2 * maxdeg bounds the norm of L;
    the residual is checked every 8 steps), or when the basis spans the
    complement of the constants.  The vector is oriented to have a positive
    inner product with start.  Length-V inner products are elementwise sums
    and einsum, not BLAS, so the result does not depend on the BLAS thread
    count.
    """
    n = len(start)
    degree = np.diff(ends.offsets).astype(float)
    small = TOL * 2 * degree.max()
    basis = np.empty((min(n - 1, 32), n))
    q = start - start.sum() / n
    q /= np.sqrt((q * q).sum())
    diagonal, off = [], []
    for j in range(n - 1):
        if j == len(basis):
            basis = np.concatenate([basis, np.empty((min(j, n - 1 - j), n))])
        basis[j] = q
        z = degree * q - np.bincount(ends.vertex, weights=q[ends.other], minlength=n)
        span = basis[: j + 1]
        alpha = 0.0
        for _ in range(2):
            z -= z.sum() / n
            c = np.einsum("ij,j->i", span, z)
            z -= np.einsum("i,ij->j", c, span)
            alpha += float(c[j])
        z -= z.sum() / n
        diagonal.append(alpha)
        beta = float(np.sqrt((z * z).sum()))
        last = beta <= small or j + 2 == n
        if last or (j + 1) % 8 == 0:
            t = np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)
            s = np.linalg.eigh(t)[1][:, 0]
            if last or beta * abs(s[-1]) <= small:
                break
        off.append(beta)
        q = z / beta
    # s[0] is the inner product with the first basis vector, so with start
    return np.einsum("i,ij->j", s if s[0] > 0 else -s, basis[: len(s)])


def cheeger_constant(graph: SkeletonGraph, mode: str = "exact", seed: int = 0) -> Fraction:
    """Cheeger constant of a connected multigraph with at least 2 vertices.

    Exact mode enumerates all cuts, on at most MAX_EXACT_VERTICES vertices,
    in blocks of 2^16 vertex masks, taking each block's least ratio with
    `_first_min_ratio`.
    Heuristic mode returns an upper bound only: it sweeps the projection of
    a start direction on the lambda_2 eigenspace (`_lambda2_projection`),
    then SWEEPS random directions.  The start direction is the first
    standard normal draw of a generator seeded with seed, and the random
    directions are the next ones.
    """
    n = graph.num_vertices
    if n < 2:
        raise ValueError("Cheeger constant needs at least 2 vertices")
    ends = graph.edge_ends
    if not ends.reaches_all:
        raise ValueError("graph is not connected")
    if mode == "exact":
        if n > MAX_EXACT_VERTICES:
            raise EnumerationCapError(
                f"exact mode limited to {MAX_EXACT_VERTICES} vertices, got {n}"
            )
        once = ends.sign > 0  # each non-loop edge once; cut counts do not depend on the order
        plain = list(zip(ends.vertex[once].tolist(), ends.other[once].tolist()))
        best = None
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
            i = _first_min_ratio(cuts, sizes)
            h = Fraction(int(cuts[i]), int(sizes[i]))
            if best is None or h < best:
                best = h
        return best
    if mode == "heuristic":
        rng = np.random.default_rng(seed)
        start = rng.standard_normal(n)
        orders = [np.argsort(_lambda2_projection(ends, start), kind="stable")]
        orders += [np.argsort(rng.standard_normal(n), kind="stable") for _ in range(SWEEPS)]
        return Fraction(*_sweep_min(ends, orders))
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
    places = p ** np.arange(len(free) - 1, -1, -1, dtype=np.int64)
    best_size, best_f = None, None
    chunk = 1 << 12
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        idx = np.arange(start, stop, dtype=np.int64)
        pots = np.zeros((stop - start, K.num_vertices), dtype=np.int64)
        pots[:, free] = idx[:, None] // places % p
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
    A vertex is rescored only when a neighbour has moved since its last
    scoring: otherwise its value still has the most hits, and rescoring
    would leave it where it is.

    The hits of every vertex are kept in a table of V rows of p counts,
    built by one bincount, so scoring a vertex is O(p).  When v moves from
    old to new, the edge of each of its ends (w, offset) is zero at w for
    f(w) = f(v) - offset, so that value shifts from old - offset to
    new - offset: one decrement and one increment in w's row, O(deg v) per
    move.  The table is built only while V*p is at most the edge-end count
    plus V, so it is never larger than the edge-end table the graph
    already holds; above that (large p) each scoring counts only the
    values v's edge ends hit, in O(deg v), since any other value has no
    hits and never beats the current one.
    """
    p = alpha.p
    n = K.num_vertices
    ends = K.edge_ends
    bounds = ends.offsets.tolist()
    other = ends.other.tolist()
    # the end's edge has residue zero when f(v) = f(other) + offset
    offsets = ends.sign * alpha.values[ends.edge] % p
    offset = offsets.tolist()
    table = n * p <= len(other) + n
    if table:
        # all f = 0: the zero value of each end is its offset
        hits = np.bincount(ends.vertex * p + offsets, minlength=n * p).reshape(n, p).tolist()
    f = [0] * n
    best = int(np.count_nonzero(alpha.values))
    stale = [True] * n
    stale[K.basepoint] = False
    improved = True
    while improved:
        improved = False
        for v in range(n):
            if not stale[v]:
                continue
            stale[v] = False
            lo, hi = bounds[v], bounds[v + 1]
            old = f[v]
            if table:
                row = hits[v]
                top = max(row)
            else:
                row = Counter((f[w] + o) % p for w, o in zip(other[lo:hi], offset[lo:hi]))
                top = max(row.values(), default=0)
            here = row[old]
            if top > here:
                best -= top - here
                f[v] = new = row.index(top) if table else min(k for k in row if row[k] == top)
                improved = True
                if table:
                    for w, o in zip(other[lo:hi], offset[lo:hi]):
                        counts = hits[w]
                        counts[(old - o) % p] -= 1
                        counts[(new - o) % p] += 1
                for w in other[lo:hi]:
                    stale[w] = True
                stale[K.basepoint] = False
    f = np.array(f, dtype=np.int64)
    reps = (alpha.values + f[K.arrays.term] - f[K.arrays.init]) % p
    return Cochain(K, p, reps), best


def relative_size(K: TwoComplex, alpha: Cochain, mode: str = "exact") -> Fraction:
    """min |supp(alpha + df)| / |E| over vertex potentials f.

    Exact mode enumerates all potentials, at most RELSIZE_CAP of them; upper
    mode runs a greedy single-vertex descent and only upper-bounds the true
    value.
    """
    if K.num_edges == 0:
        raise ValueError("relative size needs at least one edge")
    if mode == "exact":
        _, size = minimum_support_representative(K, alpha)
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
    cov: CoveringMap, alpha: Cochain, cheeger_mode: str = "exact"
) -> ExpansionReport:
    """Check the expansion bound of a p-cover against a defining class.

    alpha must be a base cocycle with nontrivial class whose vertex values
    are defined on the cover.  Uses exact relative size on the base (at
    most RELSIZE_CAP potentials) and the requested Cheeger mode on the
    total 1-skeleton; the reported Cheeger value is the smaller of that and
    the zero class's cut ratio, which leaves exact mode unchanged and
    tightens the heuristic upper bound.
    """
    p = alpha.p
    _check_nontrivial(cov.base, alpha)
    rep, size = minimum_support_representative(cov.base, alpha)
    relsize = Fraction(size, cov.base.num_edges)
    # the cut argument needs the value table of the minimizing representative
    values = vertex_values(cov, rep.values, p)
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
