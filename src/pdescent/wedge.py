"""Wedge cochains: products of a pulled-back cocycle with a vertex value table.

Given a cover q: K~ -> K built from classes vanishing on loops of K~, and
cocycles c1, c2 on K with c2 in the covering span, the wedge cochain
assigns each edge lift the value c1(q(e)) * val(init(e)), where val is the
vertex value table of c2.  Wedges of independent families are independent
modulo coboundaries, their supports stay inside the preimage of supp(c1),
and the combinations vanishing on one face per deck orbit are cocycles on
all of K~.  This manufactures many independent classes with controlled
support in the cover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fplinalg
from .complexes import Cochain, EdgePath, class_coordinates, face_sums
from .covers import CoveringMap, _offsets, vertex_values
from .errors import CocycleConditionError, InvariantError, UnsupportedCoverError

__all__ = [
    "wedge_cochain",
    "WedgeFamily",
    "build_wedge_family",
    "dual_loops",
    "commutator_path",
    "commutator_certificate",
]


def wedge_cochain(cov: CoveringMap, c1: Cochain, c2: Cochain) -> Cochain:
    """The cochain e -> c1(q(e)) * val_{c2}(init(e)) on the total complex."""
    pulled = cov.pullback(c1)
    vals = vertex_values(cov, c2.values, c2.p)
    return Cochain(cov.total, c1.p, (pulled.values * vals[cov.total.arrays.init]) % c1.p)


@dataclass(eq=False)
class WedgeFamily:
    """Wedge cochains of a family U against a complement C of span(U) in the covering span.

    base_family (U) and complement (C) are read-only int64 matrices over
    the base edges, one cocycle per row; C's rows vanish on the base's
    spanning tree.  span_basis holds the |U|*|C| wedges as rows of a
    read-only int64 matrix over the total complex's edges, row i*|C| + j
    being U_i ∧ C_j (U-major, C-minor order).  cocycle_basis, a read-only
    matrix of the same width, is an echelon basis (in wedge-index
    coordinates) of the combinations that are cocycles on the total
    complex.  Its classes are independent in H^1 of the total complex.
    """

    cover: CoveringMap
    base_family: np.ndarray
    complement: np.ndarray
    span_basis: np.ndarray
    cocycle_basis: np.ndarray

    @property
    def size(self) -> int:
        return len(self.cocycle_basis)


def build_wedge_family(cov: CoveringMap, family) -> WedgeFamily:
    """Construct the wedge family of independent cocycles U over a p-cover.

    family is U, a u x |E| integer matrix of residues mod the cover's p,
    one cocycle on cov.base per row; one stack of face sums checks them
    all.  The complement C is the greedy complement of span(U) in the
    covering span: the echelon rows that, scanned in order, leave span(U)
    and the rows kept before them, so |C| >= n - |U| when the deck group
    has rank n.  The returned cocycle basis has dimension at least
    |U|*|C| - r, where r is the number of deck orbits of faces.  C_j is
    lam_j . shifts, so U_i ∧ C_j on the lift of edge e to sheet r is
    U_i(e) * lam_j . digits[r], read off the base and `CoveringMap.digits`.
    """
    p = cov.p
    if p is None:
        raise UnsupportedCoverError("wedge families need an elementary abelian p-cover")
    base, total = cov.base, cov.total
    U = np.array(fplinalg._integers(family))
    if U.ndim != 2 or U.shape[1] != base.num_edges:
        raise ValueError("family must be a matrix with one column per base edge")
    if not len(U):
        raise ValueError("family must be nonempty")
    if U.min() < 0 or U.max() >= p:
        raise ValueError(f"family entries are not residues mod the cover's p = {p}")
    if np.any(face_sums(base, U) % p):
        raise CocycleConditionError("family member is not a cocycle")

    a, u, k = base.arrays, len(U), len(base.arrays.non_tree)
    # [shift coordinates | I], the coordinates being the non-tree shifts: the
    # covering span's echelon rows, each with its combination lam
    eye = np.eye(len(cov.deck_moduli), dtype=np.int64)
    e, _ = fplinalg.rref(np.hstack([cov.shifts.T[:, a.non_tree], eye]), p)
    # the pivot columns of [U; span rows]^T scan U, then keep the span rows that leave its span
    e_stack, r = fplinalg.rref(np.vstack([class_coordinates(base, U, p), e[:, :k]]).T, p)
    pivots = fplinalg._pivot_columns(e_stack, r)
    if np.count_nonzero(pivots < u) < u:
        raise ValueError("family classes are dependent in cohomology")
    lam = e[pivots[pivots >= u] - u, k:]
    C = lam @ cov.shifts.T % p  # tree-vanishing rows
    # the lift of edge e to sheet r starts on sheet r, where C_j's table reads lam_j . digits[r]
    sheets = lam @ cov.digits.T % p
    span_basis = (U[:, None, :, None] * sheets[:, None, :] % p).reshape(u * len(C), total.num_edges)

    # wedges of independent inputs are independent as cochains
    if fplinalg.rank(span_basis, p) != len(span_basis):
        raise InvariantError("wedge cochains of independent inputs are dependent")

    # one face per deck orbit: base face f lifted from sheet 0, its step s leaving from leave[s]
    leave, _ = _offsets(a.face_edges, a.face_signs, a.face_starts, cov.shifts)
    steps = U[:, None, a.face_edges] * (lam @ leave.T % p) * a.face_signs
    steps = steps.reshape(len(span_basis), len(a.face_edges))
    constraints = np.add.reduceat(steps, a.face_starts, axis=1).T % p
    combos = fplinalg.kernel_basis(constraints, p)
    # entries are below p <= 2**16, so the product is exact in int64
    cocycle_basis = combos @ span_basis % p
    # one face per orbit suffices; verify the full condition anyway
    if np.any(face_sums(total, cocycle_basis) % p):
        raise InvariantError("orbit representative constraints missed a face")
    coords = class_coordinates(total, cocycle_basis, p)
    if fplinalg.rank(coords, p) != len(coords):
        raise InvariantError("wedge cocycle classes are dependent in the cover")
    for m in (U, C, span_basis, cocycle_basis):
        m.flags.writeable = False
    return WedgeFamily(cov, U, C, span_basis, cocycle_basis)


def dual_loops(K, rows, p) -> list[EdgePath]:
    """Based loops l_i with c_j(l_i) = delta_ij for independent cocycles c_j.

    rows holds the cocycles c_j as a matrix, one row of edge values each.
    Built by solving for coefficient vectors over the fundamental loops and
    concatenating each loop the prescribed number of times.
    """
    rows = fplinalg._integers(rows)
    coords = class_coordinates(K, rows.reshape(len(rows), K.num_edges), p)
    loops = K.fundamental_loops()
    out = []
    for i in range(len(rows)):
        target = np.zeros(len(rows), dtype=np.int64)
        target[i] = 1
        y = fplinalg.solve(coords, target, p)
        if y is None:
            raise ValueError("cochain classes are dependent; no dual loops exist")
        loop = EdgePath(start=K.basepoint, steps=())
        for t, coeff in enumerate(y):
            for _ in range(int(coeff)):
                loop = loop.then(loops[t], K)
        out.append(loop)
    return out


def commutator_path(K, g: EdgePath, h: EdgePath) -> EdgePath:
    """The based loop g h g^-1 h^-1."""
    if g.start != h.start or K.path_end(g) != g.start or K.path_end(h) != h.start:
        raise ValueError("commutators need based loops at a common vertex")
    return g.then(h, K).then(g.reverse(K), K).then(h.reverse(K), K)


def commutator_certificate(fam: WedgeFamily) -> np.ndarray:
    """Evaluation matrix of the wedges on lifts of dual-loop commutators.

    Row (c1, c2) and column (i, j) hold the wedge evaluation on a lift of
    [l_j, l_i], where the l's are dual loops of U followed by C.  For a
    correctly built family this is the identity matrix, which certifies
    that the wedges are independent modulo coboundaries.
    """
    cov = fam.cover
    p = cov.p
    duals = dual_loops(cov.base, np.vstack([fam.base_family, fam.complement]), p)
    u = len(fam.base_family)
    mat = np.zeros((len(fam.span_basis), len(fam.span_basis)), dtype=np.int64)
    col = 0
    for i in range(u):
        for j in range(len(fam.complement)):
            comm = commutator_path(cov.base, duals[u + j], duals[i])
            steps = np.array(cov.lift_path(comm, 0).steps, dtype=np.int64).reshape(-1, 2)
            mat[:, col] = fam.span_basis[:, steps[:, 0]] @ steps[:, 1] % p
            col += 1
    return mat
