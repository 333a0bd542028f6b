"""Reference implementations used as independent test oracles.

Everything here is deliberately naive pure Python (itertools enumeration,
textbook row reduction) so that agreement with the package's vectorized
routines is meaningful.  The full-recount expansion routines, the
tuple-label cover builder and path lift, the dense H^1 basis, the
column-class loop, the hyperplane functional scan and hand-built
hyperplane rows, the per-step hyperplane reduction, the greedy complement
scan and the every-vertex greedy descent are the package's earlier
implementations, kept as references.  `run_descent_dense` assembles the
dense pieces into the whole rank-series descent, with a wedge family
built edge by edge; the edge-loop heuristic Cheeger
sweep reads its first order off a dense eigendecomposition where the
package runs Lanczos.  The expansion routines, the column-class loop and
the functional scan use numpy.  The helpers that only tests call live
here too: word loops, cochain combinations and supports, face paths and
tree edges of a complex, row-span membership and subspace containment,
the subspace support, enumerated and read off a basis, and the
hyperplane functionals.
Nothing in this module imports the package: complexes and cochains are
read through their attributes only (the expansion oracles read a
complex's 1-skeleton), a path or cochain is built by
`dataclasses.replace` on one the package made, and `run_descent_dense`
builds each cover complex with the constructor of the complex it was
given.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np


def mod_rref(rows, p):
    """Reduced row echelon form over F_p by textbook Gauss-Jordan elimination.

    Pivots on the leftmost column with a nonzero entry at or below the
    current row, taking the first such row.  Returns (rows, rank) with the
    full reduced matrix as a list of lists, zero rows last.
    """
    m = [[x % p for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col] % p != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] % p != 0:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return m, rank


def mod_rank(rows, p):
    """Rank over F_p by textbook Gaussian elimination."""
    return mod_rref(rows, p)[1]


def row_steps(rows):
    """Step arrays (row_of_step, cols, vals, nrows) that spell sparse rows.

    Each row is a {column: value} dict or a list of (column, value) pairs;
    a pair list may repeat a column, and the steps keep every repeat.
    """
    steps = [
        (i, c, v)
        for i, row in enumerate(rows)
        for c, v in (row.items() if isinstance(row, dict) else row)
    ]
    row_of_step, cols, vals = np.array(steps, dtype=np.int64).reshape(-1, 3).T
    return row_of_step, cols, vals, len(rows)


def loop_boundary_matrices(K, p):
    """d1 (V x E) and d2 (E x F) over F_p as lists of lists, cell by cell."""
    d1 = [[0] * K.num_edges for _ in range(K.num_vertices)]
    for e, (u, v) in enumerate(K.edges):
        d1[v][e] += 1
        d1[u][e] -= 1
    d2 = [[0] * K.num_faces for _ in range(K.num_edges)]
    for j, f in enumerate(face_paths(K)):
        for e, d in f:
            d2[e][j] += d
    return [[x % p for x in row] for row in d1], [[x % p for x in row] for row in d2]


def face_paths(K):
    """The (edge, direction) steps of each face's attaching path, read off K.arrays."""
    a = K.arrays
    steps = list(zip(a.face_edges.tolist(), a.face_signs.tolist()))
    bounds = [*a.face_starts.tolist(), len(steps)]
    return tuple(tuple(steps[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))


def tree_edges(K):
    """The spanning-tree edges of K, read off K.arrays."""
    return frozenset(K.arrays.parent_edge.tolist())


def boundary_path(K, j):
    """Face j's attaching path, starting at the start of its first step."""
    steps = face_paths(K)[j]
    e, d = steps[0]
    start = K.edges[e][0 if d == 1 else 1]
    return dataclasses.replace(K.tree_path(K.basepoint), start=start, steps=steps)


def presentation_loop(K, pres, word):
    """The based loop of a word in the presentation complex K of pres."""
    return dataclasses.replace(K.tree_path(K.basepoint), steps=tuple(pres.word_steps(word)))


def combine_cochains(cochains, coeffs, p):
    """The linear combination sum(coeffs[i] * cochains[i]) over F_p, term by term."""
    cochains = list(cochains)
    values = np.zeros(cochains[0].complex.num_edges, dtype=np.int64)
    for a, c in zip(coeffs, cochains, strict=True):
        assert c.complex is cochains[0].complex, "cochains live on different complexes"
        values = (values + int(a) * c.values) % p
    return dataclasses.replace(cochains[0], p=p, values=values)


def cochain_support(c):
    """The edges where the cochain c is nonzero."""
    return {int(j) for j in np.flatnonzero(c.values)}


def edge_scan_spanning_tree(num_vertices, edges, basepoint):
    """BFS spanning tree that rescans every edge for each dequeued vertex.

    Layer by layer from the basepoint; at each vertex the edges are taken
    in index order, and an edge joins the tree when it leads to an unseen
    vertex (forwards from its initial vertex, backwards from its terminal
    one).  Returns (parent, tree_edges, non_tree_edges, order, layers) where
    parent[v] is (previous vertex, edge, direction), or None for the
    basepoint; order lists the other vertices as they are found, and
    layers[k] = (lo, hi) slices those at distance k + 1.
    """
    parent = [None] * num_vertices
    seen = [False] * num_vertices
    seen[basepoint] = True
    tree, order, layers = [], [], []
    queue = [basepoint]
    while queue:
        frontier = []
        for v in queue:
            for e, (a, b) in enumerate(edges):
                if a == v and not seen[b]:
                    seen[b] = True
                    parent[b] = (v, e, 1)
                    tree.append(e)
                    frontier.append(b)
                elif b == v and not seen[a]:
                    seen[a] = True
                    parent[a] = (v, e, -1)
                    tree.append(e)
                    frontier.append(a)
        if frontier:
            layers.append((len(order), len(order) + len(frontier)))
            order += frontier
        queue = frontier
    tree = set(tree)
    non_tree = tuple(e for e in range(len(edges)) if e not in tree)
    return parent, tree, non_tree, order, tuple(layers)


def tree_path_steps(parent, v):
    """(edge, direction) steps from the basepoint to v along parent links."""
    steps = []
    while parent[v] is not None:
        pv, e, d = parent[v]
        steps.append((e, d))
        v = pv
    return tuple(reversed(steps))


def greedy_complement(inner, outer, p):
    """Rows of the reduced echelon basis of span(outer) kept by a greedy scan.

    Scans them in order and keeps each row that raises the rank of inner
    plus the rows kept so far, one rank computation per row.
    """
    echelon, r = mod_rref(outer, p)
    span = [list(row) for row in inner]
    kept = []
    for row in echelon[:r]:
        if mod_rank(span + [row], p) > mod_rank(span, p):
            span.append(row)
            kept.append(row)
    return kept


def enumerate_span(rows, p):
    """All p**len(rows) combinations of the given rows (with repeats if
    the rows are dependent)."""
    if not rows:
        yield tuple()
        return
    n = len(rows[0])
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        vec = [0] * n
        for c, row in zip(coeffs, rows):
            if c:
                for j in range(n):
                    vec[j] = (vec[j] + c * row[j]) % p
        yield tuple(vec)


def brute_support(rows, p):
    """Union of element supports by full enumeration."""
    support = set()
    for vec in enumerate_span(rows, p):
        support |= {j for j, x in enumerate(vec) if x % p != 0}
    return support


def brute_support_sum(rows, p):
    """Sum of |supp(element)| over every element of the span.

    Only meaningful when the rows are independent (else elements repeat).
    """
    return sum(sum(1 for x in vec if x % p != 0) for vec in enumerate_span(rows, p))


ENUMERATION_CAP = 2**20


def support_size_by_enumeration(rows, p, cap=ENUMERATION_CAP):
    """Support size of span(rows) recovered by summing supports over every combination of rows.

    Returns (sum over the p^d coefficient vectors c of |supp(c rows)|) /
    ((p-1) p^(d-1)), d the number of rows, which equals |supp(span(rows))|
    because a coordinate in the support is a nonzero functional of c, so
    nonzero on exactly (p-1)p^(d-1) of them; the rows need not be
    independent.  Exact rational arithmetic throughout.  More than cap
    coefficient vectors raise ValueError.
    """
    basis = np.asarray(rows, dtype=np.int64) % p
    d = len(basis)
    if d == 0:
        return Fraction(0)
    if p**d > cap:
        raise ValueError(f"enumeration of {p}**{d} elements exceeds cap {cap}")
    count, total = p**d, 0
    places = p ** np.arange(d - 1, -1, -1, dtype=np.int64)
    for start in range(0, count, 4096):  # blockwise, so memory stays bounded
        coeffs = np.arange(start, min(start + 4096, count), dtype=np.int64)[:, None] // places % p
        total += int(((coeffs @ basis) % p != 0).sum())
    return Fraction(total, (p - 1) * p ** (d - 1))


def in_rowspan(vec, basis, p):
    """True when vec lies in the row span of basis over F_p: it adds no rank."""
    vec = [int(x) for x in np.ravel(vec)]
    rows = np.asarray(basis, dtype=np.int64).reshape(-1, len(vec)).tolist()
    return mod_rank(rows + [vec], p) == mod_rank(rows, p)


def subspace_support(rows, p):
    """Indices where some element of span(rows) over F_p is nonzero.

    Equals the set of columns nonzero mod p of any spanning set, since a
    column that vanishes on the rows vanishes on every combination.
    """
    return {int(j) for j in np.flatnonzero((np.asarray(rows, dtype=np.int64) % p != 0).any(axis=0))}


def contains_subspace(outer, inner, p):
    """True when span(inner) lies in span(outer): inner's rows add no rank to outer's."""
    outer = np.asarray(outer, dtype=np.int64).tolist()
    return mod_rank(outer + np.asarray(inner, dtype=np.int64).tolist(), p) == mod_rank(outer, p)


def brute_min_hyperplane_support(rows, p):
    """Smallest |supp(W)| over all index-p subspaces W of span(rows).

    Hyperplanes are kernels of nonzero functionals on the coefficient
    space; scanning functionals in lexicographic order with first nonzero
    coordinate scaled to 1 hits each hyperplane exactly once.
    """
    v = len(rows)
    best = None
    for f in itertools.product(range(p), repeat=v):
        if all(x == 0 for x in f):
            continue
        lead = next(i for i, x in enumerate(f) if x != 0)
        if f[lead] != 1:
            continue
        # kernel basis: e_i - f_i * e_lead for i != lead
        kernel_rows = []
        for i in range(v):
            if i == lead:
                continue
            combo = [0] * len(rows[0])
            for j in range(len(rows[0])):
                combo[j] = (rows[i][j] - f[i] * rows[lead][j]) % p
            kernel_rows.append(combo)
        size = len(brute_support(kernel_rows, p))
        if best is None or size < best:
            best = size
    return best


def all_hyperplane_supports(rows, p):
    """|supp(W)| for every index-p subspace W of span(rows), in
    lexicographic functional order."""
    v = len(rows)
    sizes = []
    for f in itertools.product(range(p), repeat=v):
        if all(x == 0 for x in f):
            continue
        lead = next(i for i, x in enumerate(f) if x != 0)
        if f[lead] != 1:
            continue
        kernel_rows = []
        for i in range(v):
            if i == lead:
                continue
            combo = [
                (rows[i][j] - f[i] * rows[lead][j]) % p for j in range(len(rows[0]))
            ]
            kernel_rows.append(combo)
        sizes.append(len(brute_support(kernel_rows, p)))
    return sizes


def hyperplane_functionals(v, p):
    """All projectively normalized nonzero functionals on F_p^v, in lex order.

    One representative per hyperplane: the first nonzero coefficient is 1.
    """
    for lead in range(v - 1, -1, -1):
        for rest in itertools.product(range(p), repeat=v - 1 - lead):
            f = np.zeros(v, dtype=np.int64)
            f[lead] = 1
            f[lead + 1 :] = rest
            yield f


def brute_cheeger(num_vertices, edges):
    """Cheeger constant by enumerating every cut; loops are ignored."""
    plain = [(u, v) for u, v in edges if u != v]
    best = None
    verts = range(num_vertices)
    for size in range(1, num_vertices // 2 + 1):
        for subset in itertools.combinations(verts, size):
            inside = set(subset)
            cut = sum(1 for u, v in plain if (u in inside) != (v in inside))
            ratio = Fraction(cut, size)
            if best is None or ratio < best:
                best = ratio
    return best


def brute_relative_size(num_vertices, edges, alpha, p):
    """min |supp(alpha + df)| over all p**V vertex potentials f, and the first f.

    Returns (size, f) for the lexicographically first minimising f.  Adding
    a constant to f leaves df alone, so that f has f[0] = 0.
    """
    best = None
    for f in itertools.product(range(p), repeat=num_vertices):
        size = 0
        for e, (u, v) in enumerate(edges):
            if (alpha[e] + f[v] - f[u]) % p != 0:
                size += 1
        if best is None or size < best[0]:
            best = size, f
    return best


def random_subspace_rows(rng, p, dim, ambient):
    """Row list of a uniformly chosen matrix conditioned on full rank dim."""
    while True:
        rows = [[int(rng.integers(0, p)) for _ in range(ambient)] for _ in range(dim)]
        if mod_rank(rows, p) == dim:
            return rows


def sweep_min_full_recount(K, order):
    """Best (cut, size) over prefixes of `order` with size <= |V|/2 in the
    1-skeleton of K, recounting the whole cut for every prefix."""
    n = K.num_vertices
    inside = np.zeros(n, dtype=bool)
    best = None
    for k, v in enumerate(order, start=1):
        inside[v] = True
        if 2 * k > n:
            break
        cut = 0
        for a, b in K.edges:
            if a != b and inside[a] != inside[b]:
                cut += 1
        if best is None or cut * best[1] < best[0] * k:
            best = (cut, k)
    return best


def greedy_descent_full_recount(K, alpha):
    """Single-vertex greedy descent on |supp(alpha + df)|, recounting the
    whole support for every trial value; returns (representative values,
    support size)."""
    p = alpha.p
    f = np.zeros(K.num_vertices, dtype=np.int64)
    init = np.array([u for u, _ in K.edges], dtype=np.int64)
    term = np.array([v for _, v in K.edges], dtype=np.int64)

    def size(fvec):
        reps = (alpha.values + fvec[term] - fvec[init]) % p
        return int((reps != 0).sum())

    best = size(f)
    improved = True
    while improved:
        improved = False
        for v in range(K.num_vertices):
            if v == K.basepoint:
                continue
            orig = f[v]
            for val in range(p):
                f[v] = val
                s = size(f)
                if s < best:
                    best = s
                    orig = val
                    improved = True
            f[v] = orig
    reps = (alpha.values + f[term] - f[init]) % p
    return reps, best


def adjacency_lists(K):
    """Neighbour lists of K's 1-skeleton, one entry per non-loop edge end, in edge order."""
    adj = [[] for _ in range(K.num_vertices)]
    for u, v in K.edges:
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def sweep_min_incremental(adj, order):
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


def laplacian_by_edge_loops(K):
    """The dense combinatorial Laplacian of K's 1-skeleton, filled edge by edge;
    loops are skipped."""
    n = K.num_vertices
    lap = np.zeros((n, n), dtype=float)
    for u, v in K.edges:
        if u == v:
            continue
        lap[u, u] += 1
        lap[v, v] += 1
        lap[u, v] -= 1
        lap[v, u] -= 1
    return lap


def heuristic_cheeger_by_edge_loops(K, seed=0, sweeps=8):
    """Heuristic Cheeger upper bound of K's 1-skeleton from a Laplacian filled edge by edge.

    The first order sorts the seeded start direction (the generator's first
    standard normal draw) projected on the dense eigh's lambda_2 cluster,
    the eigenvectors past the first whose eigenvalues lie within 1e-8 of
    the second; `sweeps` random directions from the same generator follow,
    and each order is swept incrementally.  Returns the best cut ratio as a
    Fraction, or None when two entries of the unit projected vector lie
    within 1e-9 of each other, where rounding can decide their order.
    """
    n = K.num_vertices
    adj = adjacency_lists(K)
    vals, vecs = np.linalg.eigh(laplacian_by_edge_loops(K))
    cluster = vecs[:, 1:][:, vals[1:] - vals[1] <= 1e-8]
    rng = np.random.default_rng(seed)
    projected = cluster @ (cluster.T @ rng.standard_normal(n))
    projected /= np.linalg.norm(projected)
    if np.any(np.diff(np.sort(projected)) <= 1e-9):
        return None
    orders = [np.argsort(projected, kind="stable").tolist()]
    for _ in range(sweeps):
        direction = rng.standard_normal(n)
        orders.append(np.argsort(direction, kind="stable").tolist())
    best = None
    for order in orders:
        cand = sweep_min_incremental(adj, order)
        if cand is not None and (best is None or cand[0] * best[1] < best[0] * cand[1]):
            best = cand
    return Fraction(best[0], best[1])


def greedy_descent_every_vertex(K, alpha):
    """Single-vertex greedy descent on |supp(alpha + df)| that rescores
    every vertex in every pass from per-vertex incidence lists; returns
    (representative values, support size)."""
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
    return reps, best


def walk_evaluate(edges, values, p, start, steps):
    """Evaluate a cochain on a walk, checking that each step is incident."""
    total = 0
    cur = start
    for e, d in steps:
        a, b = edges[e] if d == 1 else edges[e][::-1]
        if a != cur:
            raise ValueError("path step does not start at the current vertex")
        total += d * int(values[e])
        cur = b
    return total % p


def vertex_values_by_tree_paths(total, pulled, p):
    """Integrate pulled-back values along every tree path of the total
    complex; returns (values, first edge whose ends disagree or None)."""
    values = [
        walk_evaluate(total.edges, pulled, p, total.basepoint, total.tree_path(v).steps)
        for v in range(total.num_vertices)
    ]
    for e, (a, b) in enumerate(total.edges):
        if (values[a] + int(pulled[e]) - values[b]) % p != 0:
            return values, e
    return values, None


def tuple_label_cover(K, shifts, moduli):
    """The package's earlier cover builder, on tuple deck labels.

    Deck labels are tuples enumerated by itertools.product and ranked by
    a dict; every edge and face lift shifts a label tuple one step at a
    time.  Returns (edges, faces, basepoint, labels) of the total complex
    instead of constructing it.
    """
    moduli = tuple(int(m) for m in moduli)
    degree = math.prod(moduli)
    labels = [label for label in itertools.product(*(range(m) for m in moduli))]
    label_rank = {label: i for i, label in enumerate(labels)}

    def shifted(label, e, direction):
        s = shifts[e]
        return tuple((label[k] + direction * int(s[k])) % m for k, m in enumerate(moduli))

    edges = []
    for e, (u, v) in enumerate(K.edges):
        for a in labels:
            b = shifted(a, e, 1)
            edges.append((u * degree + label_rank[a], v * degree + label_rank[b]))
    faces = []
    for f in face_paths(K):
        for a in labels:
            cur = a
            steps = []
            for e, d in f:
                if d == 1:
                    steps.append((e * degree + label_rank[cur], 1))
                    cur = shifted(cur, e, 1)
                else:
                    cur = shifted(cur, e, -1)
                    steps.append((e * degree + label_rank[cur], -1))
            assert cur == a, "face attaching path failed to close in the cover"
            faces.append(tuple(steps))
    return edges, faces, K.basepoint * degree, labels


def tuple_label_lift(shifts, moduli, start, steps, label_rank):
    """The package's earlier path lift on tuple deck labels.

    Lifts the base path (start, steps) from the deck label of the given
    rank; returns the lifted path's (start, steps).
    """
    moduli = tuple(int(m) for m in moduli)
    degree = math.prod(moduli)
    deck_labels = [label for label in itertools.product(*(range(m) for m in moduli))]
    _label_rank = {label: i for i, label in enumerate(deck_labels)}

    def _shift_label(label, e, direction):
        s = shifts[e]
        return tuple((label[k] + direction * int(s[k])) % m for k, m in enumerate(moduli))

    cur = deck_labels[label_rank]
    lifted = []
    for e, d in steps:
        if d == 1:
            lifted.append((e * degree + _label_rank[cur], 1))
            cur = _shift_label(cur, e, 1)
        else:
            cur = _shift_label(cur, e, -1)
            lifted.append((e * degree + _label_rank[cur], -1))
    return start * degree + label_rank, tuple(lifted)


def column_classes_by_loop(basis, p):
    """Projective classes of the nonzero columns, one column at a time.

    The column loop that `plotkin._column_classes` replaced: scale each
    nonzero column by the inverse of its first nonzero entry and count the
    scaled tuples.
    """
    classes = {}
    basis = np.asarray(basis, dtype=np.int64) % p
    for j in range(basis.shape[1]):
        col = basis[:, j]
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        inv = pow(int(col[nz[0]]), -1, p)
        key = tuple(int(x) for x in (col * inv) % p)
        classes[key] = classes.get(key, 0) + 1
    return classes


def best_hyperplane_by_functional_scan(basis, p):
    """The minimum-support hyperplane of span(basis) by scanning functionals.

    The reference for `plotkin.reduce_to_dimension(basis, p, dim - 1)`
    when basis is in reduced echelon form, as the reduction makes it:
    every functional f with first nonzero coefficient 1, in lexicographic
    order, where ker(f) keeps every support coordinate whose column is not
    proportional to f.  The first f of smallest support wins.  Returns
    (support size, reduced echelon basis of ker(f) as row lists).
    """
    basis = np.asarray(basis, dtype=np.int64) % p
    v = basis.shape[0]
    classes = column_classes_by_loop(basis, p)
    total = sum(classes.values())
    best = None
    for f in itertools.product(range(p), repeat=v):
        if not any(f) or f[next(i for i, x in enumerate(f) if x)] != 1:
            continue
        size = total - classes.get(f, 0)
        if best is None or size < best[1]:
            best = (f, size)
    f, size = best
    return size, hyperplane_by_rows(basis, f, p)


def hyperplane_by_rows(basis, f, p):
    """Reduced echelon basis of the hyperplane of span(basis) cut out by f.

    The reference for the reduction's echelon-transform cut
    (`plotkin._cut`): scale f to lead with 1, then map each of the rows
    e_i - f_i e_lead (i not the lead), a basis of ker(f), through the
    basis, and re-echelonise.  Returns row lists.
    """
    basis = np.asarray(basis, dtype=np.int64) % p
    f = [int(x) % p for x in f]
    lead = next(i for i, x in enumerate(f) if x)
    inv = pow(f[lead], -1, p)
    f = [x * inv % p for x in f]
    kernel = [
        [(int(a) - f[i] * int(b)) % p for a, b in zip(basis[i], basis[lead])]
        for i in range(len(f))
        if i != lead
    ]
    rows, rank = mod_rref(kernel, p)
    return rows[:rank]


def dense_cocycle_coordinates(K, p):
    """The earlier `h1_cocycle_basis` as coordinate rows on the non-tree edges.

    Builds the dense d2, keeps its non-tree rows, transposed (faces x
    non-tree edges), and returns the reduced echelon basis of their kernel:
    the standard solution of each free column, re-echelonised, all by
    textbook elimination.
    """
    d2 = loop_boundary_matrices(K, p)[1]
    nt = K.non_tree_edges
    return mod_kernel([[d2[e][j] for e in nt] for j in range(K.num_faces)], len(nt), p)


def mod_kernel(rows, ncols, p):
    """Reduced echelon basis of {x : row . x = 0 for every row} by textbook elimination.

    The standard solution of each free column of the rref, re-echelonised.
    """
    ech, r = mod_rref(rows, p)
    pivots = [next(c for c in range(ncols) if ech[i][c]) for i in range(r)]
    vectors = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [0] * ncols
        x[f] = 1
        for i, c in enumerate(pivots):
            x[c] = -ech[i][f] % p
        vectors.append(x)
    return mod_rref(vectors, p)[0]


def reduce_by_hyperplane_steps(basis, p, w):
    """The per-step reduction that `plotkin.reduce_to_dimension` replaced.

    Echelonises the basis, then cuts one hyperplane per step on every
    column: the columns of the whole current basis are grouped into
    projective classes (`column_classes_by_loop`), the largest class's
    functional wins, the lexicographically first on ties, and
    `hyperplane_by_rows` re-echelonises the hyperplane it cuts out.
    Returns (reduced echelon rows, support size, chain bound, uniform
    bound), the bounds being the factors times the input's support size.
    """
    cur, v = mod_rref(basis, p)
    cur = cur[:v]
    start = sum(column_classes_by_loop(cur, p).values())
    while len(cur) > w:
        classes = column_classes_by_loop(cur, p)
        f = max(sorted(classes), key=classes.get)
        cur = hyperplane_by_rows(cur, f, p)
    size = sum(column_classes_by_loop(cur, p).values())
    chain = Fraction(p**v - p ** (v - w), p**v - 1) * start
    uniform = Fraction(p ** (w + 1) - p, p ** (w + 1) - 1) * start
    return cur, size, chain, uniform


def tree_coordinates(K, values, p):
    """A cocycle's class coordinates: its values minus the coboundary of
    its tree-path integral, read on the non-tree edges."""
    pot = vertex_values_by_tree_paths(K, values, p)[0]
    edges = K.edges
    return [(int(values[e]) + pot[edges[e][0]] - pot[edges[e][1]]) % p for e in K.non_tree_edges]


def _on_non_tree_edges(K, coords):
    row = [0] * K.num_edges
    for e, x in zip(K.non_tree_edges, coords):
        row[e] = x
    return row


def dense_wedge_cocycles(K, total, degree, family, cover_coords, p):
    """The cocycle basis of `wedge.build_wedge_family`, edge by edge.

    total is the degree-sheeted cover of K given by the classes with
    coordinates cover_coords, with total edge t over base edge t // degree.
    The complement C is `greedy_complement` of the family's classes in
    the covering span, as tree-vanishing rows.  The wedge U_i ∧ C_j takes
    U_i's value on the base edge under a total edge times C_j's tree-path
    vertex value at the edge's start, U-major.  The cocycle combinations
    are the textbook kernel of the wedges' face sums at the zero-label
    lift f * degree of each base face f.  Returns the cocycles as rows.
    """
    u_coords = [tree_coordinates(K, row, p) for row in family]
    tables = []
    for c in greedy_complement(u_coords, cover_coords, p):
        row = _on_non_tree_edges(K, c)
        pulled = [row[t // degree] for t in range(total.num_edges)]
        values, bad = vertex_values_by_tree_paths(total, pulled, p)
        assert bad is None, "a complement class does not vanish on the cover's loops"
        tables.append(values)
    span = [
        [U[t // degree] * values[a] % p for t, (a, _) in enumerate(total.edges)]
        for U in family
        for values in tables
    ]
    assert mod_rank(span, p) == len(span), "wedges of independent inputs are dependent"
    paths = face_paths(total)
    sums = [
        [sum(d * row[e] for e, d in paths[f * degree]) % p for row in span]
        for f in range(K.num_faces)
    ]
    return [
        [sum(c * row[t] for c, row in zip(combo, span)) % p for t in range(total.num_edges)]
        for combo in mod_kernel(sums, len(span), p)
    ]


def run_descent_dense(K, p, depth, rank, u, budget):
    """`tower.run_descent` on a rank series, with dense textbook pieces.

    K is the presentation complex.  Every H^1 basis is
    `dense_cocycle_coordinates` on the non-tree edges, every cover is
    `tuple_label_cover` made a complex of K's own type, the wedge family
    is `dense_wedge_cocycles`, and each wedge span is cut to dimension u
    by `reduce_by_hyperplane_steps`.  The rank series picks, budget check,
    stops, notes and verdict follow `run_descent`.  Returns the report as
    `dataclasses.asdict` spells a DescentReport; raises ValueError where
    run_descent does, with its message.
    """

    def h1_rows(K):
        return [_on_non_tree_edges(K, c) for c in dense_cocycle_coordinates(K, p)]

    def support(rows):
        return sum(1 for col in zip(*rows) if any(col))

    def record(level, index, K, dp, supp, quotient_rank=None, bound_factor=None, wedge_count=None):
        return dict(
            level=level, index=index, dp=dp, support_size=supp, edge_count=K.num_edges,
            relsize_upper=Fraction(supp, K.num_edges), quotient_rank=quotient_rank,
            bound_factor=bound_factor, wedge_count=wedge_count,
        )

    basis = h1_rows(K)
    if len(basis) < u:
        raise ValueError(f"H^1 of the presentation complex has rank {len(basis)} < u = {u}")
    family = basis[:u]
    supp = support(family)
    records, notes, index, verdict = [], [], 1, "decay-certified"
    for level in range(1, depth + 1):
        if level > 1:
            basis = h1_rows(K)
        if len(basis) < rank:
            raise ValueError(f"level {level}: H^1 rank {len(basis)} cannot supply {rank} classes")
        coords = [[row[e] for e in K.non_tree_edges] for row in basis]
        span, picks = [tree_coordinates(K, row, p) for row in family], []
        for i, c in enumerate(coords):
            if len(picks) < rank and mod_rank(span + [c], p) == len(span) + 1:
                span, picks = span + [c], picks + [i]
        picks += [i for i in range(len(basis)) if i not in picks][: rank - len(picks)]
        here = (level, index, K, len(basis), supp)
        if p**rank * K.num_cells > budget:
            verdict = "budget-exhausted"
            projected = f"{p}**{rank} * {K.num_cells}"
            notes.append(f"level {level}: projected {projected} cells exceeds budget {budget}")
            records.append(record(*here, quotient_rank=rank))
            break
        degree = p**rank
        shifts = [[basis[i][e] for i in picks] for e in range(K.num_edges)]
        edges, faces, basepoint, _ = tuple_label_cover(K, shifts, (p,) * rank)
        total = type(K)(K.num_vertices * degree, edges, faces, basepoint)
        cocycles = dense_wedge_cocycles(K, total, degree, family, [coords[i] for i in picks], p)
        size = len(cocycles)
        if size <= u:
            verdict = "bound-violated"
            notes.append(f"level {level}: wedge family has {size} classes, need more than u = {u}")
            records.append(record(*here, quotient_rank=rank, wedge_count=size))
            index *= degree
            last = (level + 1, index, total, len(dense_cocycle_coordinates(total, p)))
            records.append(record(*last, support(cocycles)))
            break
        family, reduced, _, _ = reduce_by_hyperplane_steps(cocycles, p, u)
        bound = Fraction(p**size - p ** (size - u), p**size - 1)
        records.append(record(*here, quotient_rank=rank, bound_factor=bound, wedge_count=size))
        assert reduced <= degree * supp, "reduced family left its support's preimage"
        supp, index, K = reduced, index * degree, total
    else:
        records.append(record(depth + 1, index, K, len(dense_cocycle_coordinates(K, p)), supp))
    factor = Fraction(p ** (u + 1) - p, p ** (u + 1) - 1)
    if verdict == "decay-certified":
        for a, b in zip(records, records[1:]):
            if b["relsize_upper"] > factor * a["relsize_upper"]:
                verdict = "bound-violated"
                levels = f"{a['level']}->{b['level']}"
                notes.append(f"levels {levels}: relative size ratio exceeded {factor}")
                break
    return dict(
        records=tuple(records), p=p, u=u, verdict=verdict, uniform_factor=factor,
        notes=tuple(notes),
    )
