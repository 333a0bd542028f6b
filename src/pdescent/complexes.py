"""Group presentations and their 2-complexes, with mod-p cochain machinery.

A presentation <X | R> yields a 2-complex with one vertex, a loop per
generator and a 2-cell per relator.  General 2-complexes (arising as
covers) carry oriented edges, face attaching paths, a basepoint and a BFS
spanning tree; the tree gives normal forms for cocycles and a fundamental
loop per non-tree edge.

Sign conventions: an edge e runs init(e) -> term(e); a coboundary is
(df)(e) = f(term) - f(init); traversing e backwards negates cochain values.
"""

from __future__ import annotations

import numbers
import string
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fplinalg
from .errors import InvariantError, ParseError

__all__ = [
    "GroupPresentation",
    "parse_presentation",
    "format_presentation",
    "EdgePath",
    "TwoComplex",
    "CellArrays",
    "EdgeEnds",
    "Cochain",
    "CocycleBasis",
    "build_presentation_complex",
    "h1_dimension",
    "h1_cocycle_basis",
    "coboundary",
    "tree_potential",
    "face_sums",
    "class_coordinates",
]


@dataclass(frozen=True)
class GroupPresentation:
    """Finite presentation with single-letter generators.

    Words are strings over the generators; an uppercase letter is the
    inverse of its lowercase generator.  Relators are kept verbatim (they
    may be unreduced).
    """

    generators: tuple[str, ...]
    relators: tuple[str, ...]

    def __post_init__(self):
        seen = set()
        for g in self.generators:
            if len(g) != 1 or g not in string.ascii_lowercase:
                raise ParseError(f"generator {g!r} is not a single lowercase letter")
            if g in seen:
                raise ParseError(f"generator {g!r} repeated")
            seen.add(g)
        for w in self.relators:
            if w == "":
                raise ParseError("empty relator")
            for ch in w:
                if ch.lower() not in seen:
                    raise ParseError(f"relator {w!r} uses unknown generator {ch.lower()!r}")

    @property
    def rank(self) -> int:
        return len(self.generators)

    def word_steps(self, word: str) -> list[tuple[int, int]]:
        """Translate a word into (generator index, direction) steps."""
        index = {g: i for i, g in enumerate(self.generators)}
        steps = []
        for ch in word:
            if ch in index:
                steps.append((index[ch], 1))
            elif ch.lower() in index:
                steps.append((index[ch.lower()], -1))
            else:
                raise ParseError(f"unknown generator {ch.lower()!r} in word {word!r}")
        return steps


def _key_value_lines(text: str):
    """(line number, key, value) per `key = value` line, skipping blanks and # comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def _prime_line(lineno: int, value: str, earlier) -> int:
    """The prime of a `p = <prime>` line; `earlier` is that of a previous one, or None."""
    if earlier is not None:
        raise ParseError(f"line {lineno}: p given twice")
    try:
        return fplinalg.validate_prime(int(value))
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc


def parse_presentation(text: str) -> tuple[GroupPresentation, int]:
    """Parse the presentation file format; returns (presentation, p).

    Lines are `p = <prime>`, `gens = a b c`, and repeatable `rel = <word>`;
    blank lines and `#` comments are ignored.
    """
    p = None
    gens = None
    rels = []
    for lineno, key, value in _key_value_lines(text):
        if key == "p":
            p = _prime_line(lineno, value, p)
        elif key == "gens":
            if gens is not None:
                raise ParseError(f"line {lineno}: gens given twice")
            gens = tuple(value.split())
        elif key == "rel":
            if value == "":
                raise ParseError(f"line {lineno}: empty relator")
            rels.append(value)
        else:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
    if p is None:
        raise ParseError("missing `p = <prime>` line")
    if gens is None:
        raise ParseError("missing `gens = ...` line")
    return GroupPresentation(generators=gens, relators=tuple(rels)), p


def format_presentation(pres: GroupPresentation, p: int) -> str:
    """Canonical text form; parse(format(parse(t))) == parse(t)."""
    lines = [f"p = {p}", "gens = " + " ".join(pres.generators)]
    lines.extend(f"rel = {w}" for w in pres.relators)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EdgePath:
    """A walk in the 1-skeleton: a start vertex and (edge, direction) steps."""

    start: int
    steps: tuple[tuple[int, int], ...] = ()

    def reverse(self, complex: "TwoComplex") -> "EdgePath":
        return EdgePath(
            start=complex.path_end(self),
            steps=tuple((e, -d) for e, d in reversed(self.steps)),
        )

    def then(self, other: "EdgePath", complex: "TwoComplex") -> "EdgePath":
        if complex.path_end(self) != other.start:
            raise ValueError("paths do not concatenate")
        return EdgePath(start=self.start, steps=self.steps + other.steps)


@dataclass(frozen=True, eq=False)
class CellArrays:
    """The cells of a complex and its spanning tree, as read-only int64 arrays.

    Edge e runs init[e] -> term[e]; face_edges and face_signs are the
    (edge, direction) steps of all faces concatenated, face j starting at
    face_starts[j].  non_tree lists the non-tree edges in order.
    bfs_vertices holds every vertex but the basepoint in BFS order, reached
    from parent_vertex along parent_edge traversed in direction
    parent_sign; v sits at bfs_index[v] (-1 for the basepoint), and
    layers[k] = (lo, hi) slices the vertices at tree distance k + 1.  The
    tree is the one `EdgeEnds.tree_ends` builds from the basepoint.
    """

    init: np.ndarray
    term: np.ndarray
    face_edges: np.ndarray
    face_signs: np.ndarray
    face_starts: np.ndarray
    non_tree: np.ndarray
    bfs_vertices: np.ndarray
    bfs_index: np.ndarray
    parent_vertex: np.ndarray
    parent_edge: np.ndarray
    parent_sign: np.ndarray
    layers: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


@dataclass(frozen=True, eq=False)
class EdgeEnds:
    """The non-loop edge ends of a 1-skeleton, sorted by (vertex, edge index).

    The ends at vertex v are offsets[v]:offsets[v + 1].  End i belongs to
    vertex[i] and reaches other[i] along edge[i]; sign[i] is +1 at the
    edge's init end and -1 at its term end.  Loops have no ends here.
    One breadth-first search, `tree_ends`, walks the table: it builds the
    spanning tree of every complex and answers `reaches_all`.
    """

    offsets: np.ndarray
    vertex: np.ndarray
    other: np.ndarray
    edge: np.ndarray
    sign: np.ndarray

    @classmethod
    def of(cls, num_vertices: int, init, term) -> "EdgeEnds":
        """The table of the edges init[e] -> term[e] on num_vertices vertices."""
        init, term = np.asarray(init, dtype=np.int64), np.asarray(term, dtype=np.int64)
        if np.any((init < 0) | (init >= num_vertices) | (term < 0) | (term >= num_vertices)):
            raise ValueError("edge endpoint out of range")
        e = np.flatnonzero(init != term)
        vertex = np.concatenate([init[e], term[e]])
        edge = np.concatenate([e, e])
        order = np.lexsort((edge, vertex))
        other = np.concatenate([term[e], init[e]])[order]
        sign = np.repeat(np.array([1, -1], dtype=np.int64), len(e))[order]
        offsets = np.concatenate([[0], np.cumsum(np.bincount(vertex, minlength=num_vertices))])
        ends = cls(offsets, vertex[order], other, edge[order], sign)
        for value in vars(ends).values():
            value.flags.writeable = False
        return ends

    def tree_ends(self, root: int) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
        """A breadth-first spanning tree from root, as the ends that build it.

        picks[i] is the end that first reaches the i-th vertex found, so
        other[picks] lists the vertices reached in discovery order, and
        layers[k] = (lo, hi) slices those at tree distance k + 1.  Each
        layer scans the ends of its frontier in frontier order, each vertex's
        in edge-index order, and a vertex joins the tree through the first
        end that reaches it: first frontier vertex, then lowest edge index.
        """
        n = len(self.offsets) - 1
        reached = np.zeros(n, dtype=bool)
        reached[root] = True
        slot = np.empty(n, dtype=np.int64)
        frontier, picks = np.array([root], dtype=np.int64), []
        while frontier.size:  # one layer per pass; the last finds no vertex
            start = self.offsets[frontier]
            count = self.offsets[frontier + 1] - start
            # the ends of each frontier vertex, laid out one vertex after another
            index = np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())
            index = index[~reached[self.other[index]]]
            found = self.other[index]
            # keep the first end per new vertex: written back to front, it is
            # written last; O(len(found)) and with no sort
            slot[found[::-1]] = index[::-1]
            picks.append(index[slot[found] == index])
            frontier = self.other[picks[-1]]
            reached[frontier] = True
        bounds = np.cumsum([0, *map(len, picks)]).tolist()
        return np.concatenate(picks), tuple(zip(bounds, bounds[1:-1]))

    @cached_property
    def reaches_all(self) -> bool:
        """True when a search from vertex 0 reaches every vertex (searched once)."""
        n = len(self.offsets) - 1
        return n > 0 and len(self.tree_ends(0)[0]) == n - 1


def _index_array(values, name: str) -> np.ndarray:
    """An int64 copy of a one-dimensional array of integers."""
    a = np.asarray(values)
    if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
        raise ValueError(f"{name} is not a one-dimensional integer array")
    return a.astype(np.int64)


def _cell_arrays(num_vertices, basepoint, *cells) -> CellArrays:
    """Check the cells of a complex, all steps at once, and add a BFS spanning tree.

    The edge-end table that checks the endpoints also gives the tree, through
    `EdgeEnds.tree_ends`; the complex keeps only the arrays, not the table.
    """
    if not 0 <= basepoint < num_vertices:
        raise ValueError("basepoint out of range (a complex needs at least one vertex)")
    names = ("init", "term", "face_edges", "face_signs", "face_starts")
    init, term, face_edges, face_signs, face_starts = map(_index_array, cells, names)
    if init.shape != term.shape or face_edges.shape != face_signs.shape:
        raise ValueError("paired cell arrays differ in length")
    ends = EdgeEnds.of(num_vertices, init, term)  # checks the edge endpoints
    steps = len(face_edges)
    gaps = np.diff(face_starts, prepend=0, append=steps)
    if gaps[0] != 0 or np.any(gaps[1:] < 1):
        raise ValueError("faces need nonempty attaching paths, the first starting at step 0")
    bad = np.flatnonzero((face_edges < 0) | (face_edges >= len(init)) | (abs(face_signs) != 1))
    if steps and not bad.size:
        forward = face_signs == 1
        first = np.where(forward, init[face_edges], term[face_edges])
        last = np.where(forward, term[face_edges], init[face_edges])
        # a step must end where the next one starts; a face's last step, where its first does
        following = np.arange(1, steps + 1)
        following[np.append(face_starts[1:], steps) - 1] = face_starts
        bad = np.flatnonzero(last != first[following])
    if bad.size:
        j = int(np.searchsorted(face_starts, bad[0], side="right")) - 1
        k = int(bad[0] - face_starts[j])
        raise ValueError(f"face {j} is not a closed path of edge steps (fails at step {k})")
    picks, layers = ends.tree_ends(basepoint)
    order, parent_edge = ends.other[picks], ends.edge[picks]
    if len(order) < num_vertices - 1:
        missed = np.setdiff1d(np.arange(num_vertices), np.append(order, basepoint))[0]
        raise ValueError(f"complex is not connected (vertex {missed} unreachable)")
    bfs_index = np.full(num_vertices, -1, dtype=np.int64)
    bfs_index[order] = np.arange(len(order))
    non_tree = np.delete(np.arange(len(init)), parent_edge)
    return CellArrays(
        init, term, face_edges, face_signs, face_starts, non_tree, order, bfs_index,
        ends.vertex[picks], parent_edge, ends.sign[picks], layers,
    )


class TwoComplex:
    """A finite connected 2-complex, its cells stored once as the arrays of `arrays`.

    The constructor takes edges as (init, term) pairs and faces as closed
    attaching paths of (edge, direction) steps; `from_arrays` takes the
    arrays.  Both run the same checks and build a BFS spanning tree from
    the basepoint (`EdgeEnds.tree_ends`), giving deterministic tree paths
    and fundamental loops.  `edges` and `non_tree_edges` are tuple views
    of the arrays, and `edge_ends` is the edge-end table again, each built
    on first read.
    """

    def __init__(self, num_vertices, edges, faces=(), basepoint=0):
        faces = [tuple(f) for f in faces]
        edges, steps = (
            np.array(pairs or np.zeros((0, 2), dtype=np.int64))
            for pairs in (list(edges), [step for f in faces for step in f])
        )
        if edges.shape[1:] != (2,) or steps.shape[1:] != (2,):
            raise ValueError("edges and face steps must be pairs")
        starts = np.cumsum([0] + [len(f) for f in faces])[:-1]
        self._set_cells(num_vertices, basepoint, *edges.T, *steps.T, starts)

    @classmethod
    def from_arrays(
        cls, num_vertices, init, term, face_edges, face_signs, face_starts, basepoint=0
    ) -> "TwoComplex":
        """The complex with the given cell arrays, laid out as in CellArrays."""
        K = cls.__new__(cls)
        K._set_cells(num_vertices, basepoint, init, term, face_edges, face_signs, face_starts)
        return K

    def _set_cells(self, num_vertices, basepoint, *cells):
        self.num_vertices, self.basepoint = int(num_vertices), int(basepoint)
        self.arrays = _cell_arrays(self.num_vertices, self.basepoint, *cells)

    @property
    def num_edges(self) -> int:
        return len(self.arrays.init)

    @property
    def num_faces(self) -> int:
        return len(self.arrays.face_starts)

    @property
    def num_cells(self) -> int:
        return self.num_vertices + self.num_edges + self.num_faces

    @property
    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_faces

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """(init, term) of each edge."""
        return tuple(zip(self.arrays.init.tolist(), self.arrays.term.tolist()))

    @cached_property
    def edge_ends(self) -> EdgeEnds:
        """The non-loop edge ends, sorted by (vertex, edge index)."""
        return EdgeEnds.of(self.num_vertices, self.arrays.init, self.arrays.term)

    @cached_property
    def non_tree_edges(self) -> tuple[int, ...]:
        return tuple(self.arrays.non_tree.tolist())

    def step_endpoints(self, step):
        e, d = step
        u, v = int(self.arrays.init[e]), int(self.arrays.term[e])
        return (u, v) if d == 1 else (v, u)

    def path_end(self, path: EdgePath) -> int:
        cur = path.start
        for step in path.steps:
            a, b = self.step_endpoints(step)
            if a != cur:
                raise ValueError("path step does not start at the current vertex")
            cur = b
        return cur

    def tree_path(self, v: int) -> EdgePath:
        """The spanning-tree path from the basepoint to v."""
        a = self.arrays
        steps = []
        while v != self.basepoint:
            i = a.bfs_index[v]
            steps.append((int(a.parent_edge[i]), int(a.parent_sign[i])))
            v = int(a.parent_vertex[i])
        return EdgePath(start=self.basepoint, steps=tuple(reversed(steps)))

    def fundamental_loop(self, e: int) -> EdgePath:
        """Basepoint loop through the non-tree edge e: tree in, e, tree back."""
        to_u = self.tree_path(int(self.arrays.init[e]))
        from_v = self.tree_path(int(self.arrays.term[e])).reverse(self)
        return EdgePath(start=self.basepoint, steps=to_u.steps + ((e, 1),) + from_v.steps)

    def fundamental_loops(self) -> list[EdgePath]:
        return [self.fundamental_loop(e) for e in self.non_tree_edges]


@dataclass(eq=False)
class Cochain:
    """A 1-cochain with values in F_p, one residue per oriented edge; p must be prime."""

    complex: TwoComplex
    p: int
    values: np.ndarray

    def __post_init__(self):
        self.p = fplinalg.validate_prime(self.p)
        vals = _index_array(self.values, "cochain")
        vals %= self.p
        if vals.shape != (self.complex.num_edges,):
            raise ValueError("cochain length does not match edge count")
        vals.flags.writeable = False
        self.values = vals

    def evaluate(self, path: EdgePath) -> int:
        self.complex.path_end(path)  # raises unless the steps connect
        return sum(d * int(self.values[e]) for e, d in path.steps) % self.p

    def is_cocycle(self) -> bool:
        """True when the cochain evaluates to zero on every face boundary."""
        return not np.any(face_sums(self.complex, self.values) % self.p)

    def has_trivial_class(self) -> bool:
        """True when the cocycle evaluates to zero on every fundamental loop."""
        return not np.any(class_coordinates(self.complex, self.values, self.p))


def build_presentation_complex(pres: GroupPresentation) -> TwoComplex:
    """One vertex, a loop per generator, a 2-cell per relator (verbatim)."""
    edges = [(0, 0)] * pres.rank
    faces = [tuple(pres.word_steps(w)) for w in pres.relators]
    return TwoComplex(num_vertices=1, edges=edges, faces=faces, basepoint=0)


def _face_rows(K: TwoComplex, p: int):
    """The tree-contracted face rows over the non-tree edges, as `fplinalg.sparse_rows`.

    A cochain vanishing on the spanning tree is its values on the non-tree
    edges, so each face constraint keeps only those steps (repeated edges
    summed).  Contracting the tree drops |V| - 1 columns before any pivot.
    """
    a = K.arrays
    index = np.full(K.num_edges, -1, dtype=np.int64)
    index[a.non_tree] = np.arange(len(a.non_tree))
    cols = index[a.face_edges]
    steps = np.flatnonzero(cols >= 0)
    faces = np.searchsorted(a.face_starts, steps, side="right") - 1
    return fplinalg.sparse_rows(faces, cols[steps], a.face_signs[steps], K.num_faces, p)


def h1_dimension(K: TwoComplex, p: int) -> int:
    """dim H_1(K; F_p) = dim H^1(K; F_p), the tree-vanishing cocycle count.

    K is connected, so H^1 is the kernel of the tree-contracted face rows
    on the |E| - |V| + 1 non-tree edges; no E x F matrix is built.
    """
    p = fplinalg.validate_prime(p)
    return len(K.arrays.non_tree) - fplinalg.sparse_rank(_face_rows(K, p), p)


class CocycleBasis(Sequence):
    """The echelon H^1 basis of a complex, a d_p x |E| matrix built row by row.

    Immutable: len is d_p.  A slice or a sequence of indices returns a
    read-only int64 matrix of those rows, in the order asked; an integer
    index returns one `Cochain`.  Each row vanishes on the spanning tree:
    a kernel row of `fplinalg.sparse_kernel` scattered onto the non-tree
    edges, built when first read.  The cache keeps it as a view into the
    matrix it was first returned in.
    """

    def __init__(self, K: TwoComplex, p: int, size: int, row):
        self._complex = K
        self._p = p
        self._row = row
        self._cache: list[np.ndarray | None] = [None] * size

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, i):
        if isinstance(i, numbers.Integral):
            return Cochain(self._complex, self._p, self[[i]][0])
        if isinstance(i, slice):
            i = range(len(self))[i]
        rows = np.zeros((len(i), self._complex.num_edges), dtype=np.int64)
        for k, j in enumerate(i):
            j = range(len(self))[j]  # bounds check and negative indices
            if self._cache[j] is None:
                rows[k, self._complex.arrays.non_tree] = self._row(j)
                self._cache[j] = rows[k]  # a view, so a row is stored once
            else:
                rows[k] = self._cache[j]
        rows.flags.writeable = False
        return rows


def h1_cocycle_basis(K: TwoComplex, p: int) -> CocycleBasis:
    """Echelon basis of H^1(K; F_p) as cocycles vanishing on the spanning tree.

    A cocycle vanishing on the tree is determined by its non-tree values,
    and distinct such cocycles lie in distinct classes, so the kernel of
    the tree-contracted face rows holds one representative per class.  Its
    reduced echelon basis comes from one sparse elimination; a row is
    built only when it is read.
    """
    p = fplinalg.validate_prime(p)
    rows = _face_rows(K, p)
    rank, free, row = fplinalg.sparse_kernel(rows, len(K.arrays.non_tree), p)
    # the same elimination on relabelled columns, so with other pivots, must find the same rank
    ptr, cols, vals = rows
    faces = np.repeat(np.arange(K.num_faces), np.diff(ptr))
    relabelled = fplinalg.sparse_rows(faces, fplinalg.first_seen_labels(cols), vals, K.num_faces, p)
    if rank != fplinalg.sparse_rank(relabelled, p):
        raise InvariantError("cocycle basis size differs from dim H_1(K; F_p)")
    return CocycleBasis(K, p, len(free), row)


def coboundary(K: TwoComplex, potential, p: int) -> Cochain:
    """df for a vertex potential f: (df)(e) = f(term) - f(init)."""
    p = fplinalg.validate_prime(p)
    f = _index_array(potential, "potential")
    f %= p
    if f.shape != (K.num_vertices,):
        raise ValueError("potential length does not match vertex count")
    a = K.arrays
    return Cochain(K, p, (f[a.term] - f[a.init]) % p)


def tree_potential(K: TwoComplex, values, p: int) -> np.ndarray:
    """Integrals of edge-value rows along the spanning tree, one per vertex.

    values holds one residue per edge along its last axis, one row or a
    stack; pot[..., v] evaluates each row on the tree path from the
    basepoint to v, mod p, with one vectorised step per BFS layer.
    """
    p = fplinalg.validate_prime(p)
    a = K.arrays
    # edge-major, so each layer gathers and scatters along the first axis
    values = np.ascontiguousarray(fplinalg._integers(values).T)
    pot = np.zeros((K.num_vertices,) + values.shape[1:], dtype=np.int64)
    sign = a.parent_sign.reshape((-1,) + (1,) * (values.ndim - 1))
    for lo, hi in a.layers:
        step = sign[lo:hi] * values[a.parent_edge[lo:hi]]
        pot[a.bfs_vertices[lo:hi]] = (pot[a.parent_vertex[lo:hi]] + step) % p
    return pot.T


def face_sums(K: TwoComplex, rows) -> np.ndarray:
    """Integer face-boundary sums of edge-value rows, one column per face.

    rows holds one value per edge along its last axis; out[..., j] sums
    d * rows[..., e] over the steps (e, d) of face j, without reduction.
    """
    rows = fplinalg._integers(rows)
    if K.num_faces == 0:
        return np.zeros(rows.shape[:-1] + (0,), dtype=np.int64)
    a = K.arrays
    return np.add.reduceat(rows[..., a.face_edges] * a.face_signs, a.face_starts, axis=-1)


def class_coordinates(K: TwoComplex, rows, p: int) -> np.ndarray:
    """Evaluations of edge-value rows on the fundamental loops, one per non-tree edge.

    rows holds one value per edge along its last axis, one row or a stack,
    as in `face_sums`.  Coboundaries vanish on closed loops, so a cocycle's
    coordinates depend only on its class; for a tree-vanishing cocycle they
    are its non-tree values.  The loop through e evaluates to
    pot[init e] + c(e) - pot[term e] for the tree potential pot of c.
    """
    p = fplinalg.validate_prime(p)
    a = K.arrays
    rows = fplinalg._integers(rows)
    pot = tree_potential(K, rows, p).T  # vertex-major, as tree_potential builds it
    values = rows.T
    return np.ascontiguousarray(((pot[a.init] + values - pot[a.term]) % p)[a.non_tree].T)
