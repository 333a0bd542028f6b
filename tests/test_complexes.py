from collections.abc import Sequence
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdescent import fplinalg
from pdescent.complexes import (
    Cochain,
    EdgeEnds,
    EdgePath,
    GroupPresentation,
    TwoComplex,
    build_presentation_complex,
    class_coordinates,
    coboundary,
    face_sums,
    format_presentation,
    h1_cocycle_basis,
    h1_dimension,
    parse_presentation,
    tree_potential,
)
from pdescent.covers import build_abelian_p_cover, build_cyclic_cover, loop_evaluations
from pdescent.errors import ParseError

from oracles import (
    boundary_path,
    combine_cochains,
    dense_cocycle_coordinates,
    edge_scan_spanning_tree,
    face_paths,
    loop_boundary_matrices,
    mod_rank,
    presentation_loop,
    tree_edges,
    tree_path_steps,
    walk_evaluate,
)

TORUS = "p = 2\ngens = a b\nrel = abAB\n"
GENUS2 = "p = 2\ngens = a b c d\nrel = abABcdCD\n"
WEDGE2 = "p = 2\ngens = a b\n"


def test_parse_torus():
    pres, p = parse_presentation(TORUS)
    assert p == 2
    assert pres.generators == ("a", "b")
    assert pres.relators == ("abAB",)


def test_parse_ignores_comments_and_blank_lines():
    noisy = "# header\n\np = 2   # the prime\n\ngens = a b\n# done\nrel = abAB\n\n"
    assert parse_presentation(noisy) == parse_presentation(TORUS)


def test_parse_errors_name_lines():
    with pytest.raises(ParseError, match="line 1"):
        parse_presentation("p = 4\ngens = a\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_presentation("p = 2\nwat = 1\n")
    with pytest.raises(ParseError, match="missing `p"):
        parse_presentation("gens = a b\n")
    with pytest.raises(ParseError, match="missing `gens"):
        parse_presentation("p = 5\n")
    with pytest.raises(ParseError):
        parse_presentation("p = 2\ngens = a b\nrel = abX\n")  # X not a generator
    with pytest.raises(ParseError, match="line 3"):
        parse_presentation("p = 2\ngens = a\ngens = b\n")
    with pytest.raises(ParseError, match="line 2: p given twice"):
        parse_presentation("p = 2\np = 3\ngens = a\n")


def test_format_round_trip():
    for text in (TORUS, GENUS2, WEDGE2):
        pres, p = parse_presentation(text)
        again = parse_presentation(format_presentation(pres, p))
        assert again == (pres, p)


def test_word_steps_signs():
    pres, _ = parse_presentation(TORUS)
    assert pres.word_steps("abAB") == [(0, 1), (1, 1), (0, -1), (1, -1)]
    with pytest.raises(ValueError):
        pres.word_steps("ax")


def test_presentation_complex_shapes():
    wedge, _ = parse_presentation(WEDGE2)
    K = build_presentation_complex(wedge)
    assert (K.num_vertices, K.num_edges, K.num_faces) == (1, 2, 0)
    assert K.euler_characteristic == -1

    torus, _ = parse_presentation(TORUS)
    K = build_presentation_complex(torus)
    assert (K.num_vertices, K.num_edges, K.num_faces) == (1, 2, 1)
    assert K.euler_characteristic == 0

    genus2, _ = parse_presentation(GENUS2)
    K = build_presentation_complex(genus2)
    assert (K.num_vertices, K.num_edges, K.num_faces) == (1, 4, 1)
    assert K.euler_characteristic == -2


def test_face_closure_validation():
    # attaching path must close up
    with pytest.raises(ValueError):
        TwoComplex(2, [(0, 1)], faces=[((0, 1),)])
    # and must be incident step to step
    with pytest.raises(ValueError):
        TwoComplex(3, [(0, 1), (2, 2)], faces=[((0, 1), (1, 1), (1, -1), (0, -1))])


@pytest.mark.parametrize(
    "num_vertices, edges, faces",
    [
        (1, [(0, 0)], [((-1, 1),)]),
        (1, [(0, 0)], [((5, 1),)]),
        (1, [(0, 0)], [((0, 2),)]),
        (1, [(0, 0)], [((0, 0),)]),
        (2, [(0, 1.5)], []),
        (1, [(0, 0)], [()]),
    ],
    ids=[
        "negative-edge",
        "edge-past-last",
        "direction-2",
        "direction-0",
        "fractional-endpoint",
        "empty-face",
    ],
)
def test_malformed_cells_are_rejected_by_both_entry_points(num_vertices, edges, faces):
    with pytest.raises(ValueError):
        TwoComplex(num_vertices, edges, faces)
    steps = [step for f in faces for step in f]
    starts = np.cumsum([0] + [len(f) for f in faces])[:-1]
    with pytest.raises(ValueError):
        TwoComplex.from_arrays(
            num_vertices,
            [u for u, _ in edges],
            [v for _, v in edges],
            [e for e, _ in steps],
            [d for _, d in steps],
            starts,
        )


@pytest.mark.parametrize(
    "num_vertices, edges, basepoint, missed",
    [
        (6, [(2, 3), (4, 3), (3, 3)], 3, 0),  # 0, 1 and 5 isolated
        (7, [(0, 1), (5, 6), (1, 1)], 1, 2),  # 2, 3, 4 isolated; 5-6 a second component
        (5, [(4, 1), (1, 0), (0, 4)], 4, 2),  # 2 and 3 isolated, after a triangle
    ],
)
def test_disconnected_complex_names_lowest_unreachable_vertex(
    num_vertices, edges, basepoint, missed
):
    message = f"complex is not connected \\(vertex {missed} unreachable\\)"
    with pytest.raises(ValueError, match=message):
        TwoComplex(num_vertices, edges, basepoint=basepoint)
    with pytest.raises(ValueError, match=message):
        TwoComplex.from_arrays(num_vertices, *zip(*edges), [], [], [], basepoint=basepoint)


def test_from_arrays_matches_constructor():
    edges = [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3), (1, 3), (3, 3)]
    faces = [((0, 1),), ((1, 1), (2, 1)), ((3, 1), (7, 1), (6, 1), (4, 1))]
    K = TwoComplex(4, edges, faces, basepoint=2)
    L = TwoComplex.from_arrays(
        4, *zip(*edges), [0, 1, 2, 3, 7, 6, 4], [1] * 7, [0, 1, 3], basepoint=2
    )
    assert (L.edges, face_paths(L), L.non_tree_edges) == (K.edges, face_paths(K), K.non_tree_edges)
    # faces must cover the steps from step 0
    with pytest.raises(ValueError, match="step 0"):
        TwoComplex.from_arrays(1, [0], [0], [0], [1], [1])


def test_spanning_tree_and_fundamental_loops():
    # square: 4 vertices in a cycle plus a chord
    K = TwoComplex(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
    assert tree_edges(K) == {0, 1, 3}  # BFS from 0 in edge order
    assert set(K.non_tree_edges) == {2, 4}
    for e in K.non_tree_edges:
        loop = K.fundamental_loop(e)
        assert loop.start == K.basepoint
        assert K.path_end(loop) == K.basepoint
        assert any(step[0] == e for step in loop.steps)
    # tree paths reach every vertex from the basepoint
    for v in range(4):
        assert K.path_end(K.tree_path(v)) == v


def test_spanning_tree_matches_edge_scan_bfs():
    genus2 = build_presentation_complex(parse_presentation(GENUS2)[0])
    complexes = [
        build_abelian_p_cover(genus2, h1_cocycle_basis(genus2, p)[:2], p).total
        for p in (2, 3)
    ]
    complexes += [build_cyclic_cover(genus2, [1, -2, 0, 3], n).total for n in (5, 12)]
    # loops at 0, 2 and 3; parallel edges 1, 2 and 3, 4 and 6, 7
    edges = [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3), (1, 3), (3, 3)]
    faces = [((0, 1),), ((1, 1), (2, 1)), ((3, 1), (7, 1), (6, 1), (4, 1))]
    complexes += [TwoComplex(4, edges, faces, basepoint=b) for b in (0, 2)]
    for K in complexes:
        parent, tree, non_tree, *_ = edge_scan_spanning_tree(K.num_vertices, K.edges, K.basepoint)
        assert tree_edges(K) == tree
        assert K.non_tree_edges == non_tree
        for v in range(K.num_vertices):
            assert K.tree_path(v) == EdgePath(K.basepoint, tree_path_steps(parent, v))


@st.composite
def connected_multigraphs(draw):
    """A vertex count, edges laid over a random spanning path, and a basepoint.

    Loops and parallel edges are allowed; edges are shuffled and flipped at
    random, so the path's edges may come in any order and direction.
    """
    n = draw(st.integers(1, 10))
    path = draw(st.permutations(range(n)))
    vertex = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=14))
    edges = draw(st.permutations([*zip(path, path[1:]), *extra]))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, [e[::-1] if f else e for e, f in zip(edges, flips)], draw(vertex)


@settings(max_examples=300, deadline=None, database=None)
@given(connected_multigraphs())
def test_spanning_tree_arrays_match_edge_scan_bfs(case):
    n, edges, basepoint = case
    a = TwoComplex(n, edges, basepoint=basepoint).arrays
    parent, _, non_tree, order, layers = edge_scan_spanning_tree(n, edges, basepoint)
    assert a.bfs_vertices.tolist() == order
    assert a.layers == layers
    assert a.bfs_index.tolist() == [order.index(v) if v in order else -1 for v in range(n)]
    parents = zip(a.parent_vertex.tolist(), a.parent_edge.tolist(), a.parent_sign.tolist())
    assert list(parents) == [parent[v] for v in order]
    assert tuple(a.non_tree.tolist()) == non_tree


def test_edge_path_reverse_then():
    K = TwoComplex(3, [(0, 1), (1, 2)])
    path = EdgePath(0, ((0, 1), (1, 1)))
    rev = path.reverse(K)
    assert rev.start == 2 and K.path_end(rev) == 0
    round_trip = path.then(rev, K)
    assert round_trip.start == 0 and K.path_end(round_trip) == 0


def test_boundary_composition_vanishes():
    for text in (TORUS, GENUS2):
        pres, p = parse_presentation(text)
        K = build_presentation_complex(pres)
        d1, d2 = map(np.array, loop_boundary_matrices(K, p))
        assert d1.shape == (K.num_vertices, K.num_edges)
        assert d2.shape == (K.num_edges, K.num_faces)
        assert np.all((d1 @ d2) % p == 0)


def test_h1_dimension_known_values():
    # wedge of n circles: rank n; torus: 2; genus-2 surface: 4
    for n in (1, 2, 3):
        pres = GroupPresentation(generators=tuple("abc"[:n]), relators=())
        K = build_presentation_complex(pres)
        for p in (2, 3):
            assert h1_dimension(K, p) == n
    torus = build_presentation_complex(parse_presentation(TORUS)[0])
    assert h1_dimension(torus, 2) == 2
    assert h1_dimension(torus, 3) == 2
    genus2 = build_presentation_complex(parse_presentation(GENUS2)[0])
    assert h1_dimension(genus2, 2) == 4
    # killing a generator drops the rank: <a | a> is trivial
    killed = build_presentation_complex(
        GroupPresentation(generators=("a",), relators=("a",))
    )
    assert h1_dimension(killed, 2) == 0


def _random_connected_complex(rng):
    """A random tree plus extra edges (loops and parallels allowed), with
    faces that close random walks through the spanning tree."""
    n = int(rng.integers(1, 7))
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    edges += [tuple(int(x) for x in rng.integers(0, n, size=2)) for _ in range(rng.integers(0, 6))]
    order = rng.permutation(len(edges))
    edges = [edges[i] if rng.random() < 0.5 else edges[i][::-1] for i in order]
    skeleton = TwoComplex(n, edges)
    faces = []
    for _ in range(int(rng.integers(0, 5))):
        start = cur = int(rng.integers(0, n))
        walk = []
        for _ in range(int(rng.integers(1, 6))):
            out = [(e, 1) for e, (u, _) in enumerate(edges) if u == cur]
            out += [(e, -1) for e, (_, v) in enumerate(edges) if v == cur]
            if not out:
                break
            step = out[int(rng.integers(0, len(out)))]
            walk.append(step)
            cur = skeleton.step_endpoints(step)[1]
        back = skeleton.tree_path(cur).reverse(skeleton).steps + skeleton.tree_path(start).steps
        if walk or back:
            faces.append(tuple(walk) + back)
    return TwoComplex(n, edges, faces)


def test_h1_dimension_against_rank_oracle():
    rng = np.random.default_rng(41)
    words = ["abAB", "aabb", "abab", "aB", "bbb", "abba"]
    complexes = []
    for _ in range(20):
        k = int(rng.integers(0, 3))
        rels = tuple(words[int(i)] for i in rng.integers(0, len(words), size=k))
        pres = GroupPresentation(generators=("a", "b"), relators=rels)
        complexes.append(build_presentation_complex(pres))
    # multi-vertex complexes, where rank d1 = |V| - 1 is not zero
    genus2 = build_presentation_complex(parse_presentation(GENUS2)[0])
    for p in (2, 3):
        complexes.append(build_abelian_p_cover(genus2, h1_cocycle_basis(genus2, p)[:2], p).total)
    complexes.append(build_cyclic_cover(genus2, [1, -2, 0, 3], 6).total)
    complexes += [_random_connected_complex(rng) for _ in range(30)]
    for K in complexes:
        for p in (2, 3, 5, 65521):
            d1, d2 = loop_boundary_matrices(K, p)
            d2_rows = [list(col) for col in zip(*d2)]
            expect = K.num_edges - mod_rank(d1, p) - mod_rank(d2_rows, p)
            assert h1_dimension(K, p) == expect


def test_h1_cocycle_basis_properties():
    for text, p in ((TORUS, 2), (GENUS2, 2), (TORUS, 3), (WEDGE2, 5)):
        pres, _ = parse_presentation(text)
        K = build_presentation_complex(pres)
        basis = h1_cocycle_basis(K, p)
        assert len(basis) == h1_dimension(K, p)
        coord_rows = []
        for c in basis:
            assert c.is_cocycle()
            # normalized: zero on tree edges
            assert all(c.values[e] == 0 for e in tree_edges(K))
            coord_rows.append(class_coordinates(K, c.values, p).tolist())
        if coord_rows:
            assert mod_rank(coord_rows, p) == len(basis)


@settings(max_examples=120, deadline=None, database=None)
@given(st.sampled_from((2, 3, 5, 65521)), st.integers(0, 2**32 - 1), st.data())
def test_h1_cocycle_basis_matches_dense_oracle(p, seed, data):
    # the lazy rows of one sparse elimination are the dense echelon basis,
    # row for row, on random complexes, abelian covers and cyclic covers
    rng = np.random.default_rng(seed)
    kinds = ("abelian", "cyclic", "random") if p <= 5 else ("cyclic", "random")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "random":
        K = _random_connected_complex(rng)
    else:
        base = build_presentation_complex(
            parse_presentation(data.draw(st.sampled_from((TORUS, GENUS2, WEDGE2))))[0]
        )
        if kind == "abelian":
            classes = h1_cocycle_basis(base, p)[: data.draw(st.integers(1, 2))]
            K = build_abelian_p_cover(base, classes, p).total
        else:
            weights = [1] + [int(x) for x in rng.integers(-3, 4, size=base.num_edges - 1)]
            K = build_cyclic_cover(base, weights, data.draw(st.integers(1, 9))).total
    basis = h1_cocycle_basis(K, p)
    want = dense_cocycle_coordinates(K, p)
    assert len(basis) == len(want) == h1_dimension(K, p)
    non_tree = list(K.non_tree_edges)
    tree = sorted(tree_edges(K))
    order = data.draw(st.permutations(range(len(want))))
    # the rows read as one matrix, in the drawn order, before any is cached
    rows = basis[order]
    expect = np.zeros((len(want), K.num_edges), dtype=np.int64)
    expect[:, non_tree] = np.reshape([want[i] for i in order], (len(want), len(non_tree)))
    assert np.array_equal(rows, expect) and not rows.flags.writeable
    for k, i in enumerate(order):
        c = basis[i]
        assert c.values[non_tree].tolist() == want[i]
        assert not c.values[tree].any()
        assert np.array_equal(rows[k], c.values)


def test_cocycle_basis_is_a_lazy_immutable_sequence():
    pres, p = parse_presentation(GENUS2)
    genus2 = build_presentation_complex(pres)
    K = build_abelian_p_cover(genus2, h1_cocycle_basis(genus2, 3)[:2], 3).total
    basis = h1_cocycle_basis(K, 3)
    want = dense_cocycle_coordinates(K, 3)
    assert isinstance(basis, Sequence) and len(basis) == len(want) == 20
    # read out of order: the rows do not depend on what was read before
    late = basis[7]
    assert isinstance(late, Cochain)
    assert basis[-13].values.tolist() == basis[7].values.tolist() == late.values.tolist()
    assert class_coordinates(K, late.values, 3).tolist() == want[7]
    # a slice is a read-only matrix of rows, an integer index a cochain
    window = basis[5:9]
    assert isinstance(window, np.ndarray) and not window.flags.writeable
    assert window.shape == (4, K.num_edges) and window[2].tolist() == late.values.tolist()
    assert basis[::-7].tolist() == [basis[i].values.tolist() for i in (19, 12, 5)]
    assert class_coordinates(K, basis[:], 3).tolist() == want
    assert [c.values.tolist() for c in basis] == basis[:].tolist()
    for bad in (20, -21):
        with pytest.raises(IndexError):
            basis[bad]
        with pytest.raises(IndexError):
            basis[[0, bad]]
    with pytest.raises(TypeError):
        basis[0] = late
    # no faces: every non-tree value is free; no non-tree edges: H^1 = 0
    rose = build_presentation_complex(GroupPresentation(generators=("a", "b"), relators=()))
    assert [c.values.tolist() for c in h1_cocycle_basis(rose, 5)] == [[1, 0], [0, 1]]
    assert len(h1_cocycle_basis(TwoComplex(3, [(0, 1), (1, 2)]), 2)) == 0


def test_class_coordinates_are_loop_evaluations():
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    for c in h1_cocycle_basis(K, p):
        coords = class_coordinates(K, c.values, p)
        for j, loop in enumerate(K.fundamental_loops()):
            assert c.evaluate(loop) == coords[j]


@st.composite
def complexes_with_cochains(draw):
    """A random cover or random 2-complex (loops and parallel edges
    allowed) with a random cochain, a random cocycle, or a coboundary."""
    p = draw(st.sampled_from((2, 3, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("abelian", "cyclic", "random")))
    if kind == "random":
        K = _random_connected_complex(rng)
    else:
        base = build_presentation_complex(
            parse_presentation(draw(st.sampled_from((TORUS, GENUS2, WEDGE2))))[0]
        )
        basis = h1_cocycle_basis(base, p)
        if kind == "abelian":
            K = build_abelian_p_cover(base, basis[: draw(st.integers(1, 2))], p).total
        else:
            # the relators have zero exponent sums, so any weights kill the faces
            weights = [1] + [int(x) for x in rng.integers(-3, 4, size=base.num_edges - 1)]
            K = build_cyclic_cover(base, weights, draw(st.integers(1, 9))).total
    values = rng.integers(0, p, size=K.num_edges)
    shape = draw(st.sampled_from(("any", "cocycle", "coboundary")))
    if shape != "any":
        values = coboundary(K, rng.integers(0, p, size=K.num_vertices), p).values
    if shape == "cocycle" and (basis := h1_cocycle_basis(K, p)):
        values = values + combine_cochains(basis, rng.integers(0, p, size=len(basis)), p).values
    return Cochain(K, p, values)


@settings(max_examples=150, deadline=None, database=None)
@given(complexes_with_cochains())
def test_tree_potential_checks_match_path_walks(c):
    K, p = c.complex, c.p
    walk = lambda path: walk_evaluate(K.edges, c.values, p, path.start, path.steps)  # noqa: E731
    pot = tree_potential(K, c.values, p)
    assert pot.tolist() == [walk(K.tree_path(v)) for v in range(K.num_vertices)]
    loops = [walk(loop) for loop in K.fundamental_loops()]
    assert class_coordinates(K, c.values, p).tolist() == loops
    assert c.has_trivial_class() == (not any(loops))
    assert c.is_cocycle() == all(walk(boundary_path(K, j)) == 0 for j in range(K.num_faces))
    # integer face sums of a stack of rows, signs and all, before any reduction
    rows = np.stack([c.values, -3 * c.values, np.arange(K.num_edges)])
    expect = [[sum(d * int(row[e]) for e, d in f) for f in face_paths(K)] for row in rows]
    assert face_sums(K, rows).tolist() == expect
    assert face_sums(K, rows[0]).tolist() == expect[0]
    # a stack of 0, 1 or 3 unreduced rows gives the row-by-row potentials and coordinates
    for stack in (rows[:0], rows[:1], rows):
        pots, coords = tree_potential(K, stack, p), class_coordinates(K, stack, p)
        assert pots.shape == (len(stack), K.num_vertices)
        assert coords.shape == (len(stack), len(K.non_tree_edges))
        assert pots.tolist() == [tree_potential(K, row, p).tolist() for row in stack]
        assert coords.tolist() == [class_coordinates(K, row, p).tolist() for row in stack]


def test_coboundary_is_trivial_cocycle():
    K = TwoComplex(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
    rng = np.random.default_rng(47)
    for p in (2, 3, 5):
        f = rng.integers(0, p, size=K.num_vertices)
        df = coboundary(K, f, p)
        assert df.is_cocycle()
        assert df.has_trivial_class()
        # df(e) = f(term) - f(init)
        for e, (u, v) in enumerate(K.edges):
            assert df.values[e] == (f[v] - f[u]) % p


def test_evaluate_checks_incidence():
    K = TwoComplex(3, [(0, 1), (1, 2)])
    c = Cochain(K, 2, np.array([1, 0]))
    broken = EdgePath(0, ((1, 1),))  # edge 1 starts at vertex 1, not 0
    with pytest.raises(ValueError):
        c.evaluate(broken)


def test_evaluate_is_additive_along_paths():
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    c = h1_cocycle_basis(K, p)[0]
    word1 = presentation_loop(K, pres, "ab")
    word2 = presentation_loop(K, pres, "cD")
    assert (
        c.evaluate(word1.then(word2, K))
        == (c.evaluate(word1) + c.evaluate(word2)) % p
    )
    rev = word1.reverse(K)
    assert (c.evaluate(word1) + c.evaluate(rev)) % p == 0


def test_combine_cochains():
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    combo = combine_cochains([basis[0], basis[1]], [1, 1], p)
    assert np.array_equal(combo.values, (basis[0].values + basis[1].values) % p)


@st.composite
def edge_lists(draw):
    """A vertex count and any edge list on it: loops, parallel edges, isolated vertices."""
    n = draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=14))


@settings(max_examples=300, deadline=None, database=None)
@given(edge_lists())
def test_edge_ends_table_and_reachability(case):
    n, edges = case
    ends = EdgeEnds.of(n, [u for u, _ in edges], [v for _, v in edges])
    want = sorted(
        [(u, e, v, 1) for e, (u, v) in enumerate(edges) if u != v]
        + [(v, e, u, -1) for e, (u, v) in enumerate(edges) if u != v]
    )
    columns = (ends.vertex, ends.edge, ends.other, ends.sign)
    assert list(zip(*(c.tolist() for c in columns))) == want
    assert ends.offsets.tolist() == [sum(x[0] < v for x in want) for v in range(n + 1)]
    reached = {0}
    for _ in range(n):
        reached |= {b for a, b in edges if a in reached} | {a for a, b in edges if b in reached}
    assert ends.reaches_all == (len(reached) == n)


def test_cochains_and_coboundaries_need_a_prime_modulus():
    # the modulus is checked before any reduction by it, so mod 0 cannot
    # reduce values to zeros and mod 4 is not taken for a field
    K = build_presentation_complex(parse_presentation(TORUS)[0])  # one vertex, two edges
    for p in (0, 1, 4, 2.0):
        with pytest.raises(ValueError, match="modulus"):
            Cochain(K, p, [1, 3])
        with pytest.raises(ValueError, match="modulus"):
            coboundary(K, [1], p)
    assert Cochain(K, 3, [1, 3]).values.tolist() == [1, 0]
    assert coboundary(K, [1], 2).values.tolist() == [0, 0]
    # so are the potentials, coordinates and eliminations over F_p: mod 4
    # these returned [1, 3] and the rank 3 of the identity
    for p in (0, 4, 6):
        with pytest.raises(ValueError, match="modulus"):
            tree_potential(K, [1, 3], p)
        with pytest.raises(ValueError, match="modulus"):
            class_coordinates(K, [1, 3], p)
        with pytest.raises(ValueError, match="modulus"):
            fplinalg.rref(np.eye(3, dtype=int), p)
        with pytest.raises(ValueError, match="modulus"):
            fplinalg.rank(np.eye(3, dtype=int), p)
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        fplinalg.kernel_basis([[2, 0], [0, 2]], 4)


def test_edge_ends_reject_out_of_range_ends():
    with pytest.raises(ValueError, match="edge endpoint out of range"):
        EdgeEnds.of(2, [0], [2])


def test_non_integer_entries_are_rejected_not_truncated():
    K = build_presentation_complex(parse_presentation(GENUS2)[0])  # one vertex, four edges
    for bad in ([1.7, 2.2, 0.5, -0.9], [2.0, 0.0, 1.0, 1.0], [Fraction(1, 2)] * 4):
        with pytest.raises(ValueError, match="integer"):
            Cochain(K, 3, bad)
        with pytest.raises(ValueError, match="integer"):
            build_abelian_p_cover(K, [bad], 3)
    with pytest.raises(ValueError, match="integer"):
        coboundary(K, [0.5], 3)
    with pytest.raises(ValueError, match="integer"):
        fplinalg.rank([[0.5, 1.9]], 3)
    with pytest.raises(ValueError, match="integer"):
        fplinalg.FpSubspace.from_rows([[1.5, 2.7]], 3)
    with pytest.raises(ValueError, match="integer"):
        fplinalg.solve([[1, 0]], [0.5], 3)
    # these cast with truncation before: [1.5, 2.7, 0, 0] evaluated as [1, 2, 0, 0]
    for bad in ([1.5, 2.7, 0, 0], [[1.5, 2.7, 0.2, 0.9]] * 2):
        with pytest.raises(ValueError, match="integer"):
            face_sums(K, bad)
    with pytest.raises(ValueError, match="integer"):
        loop_evaluations(K, [1.5, 2.7, 0, 0])
    with pytest.raises(ValueError, match="integer"):
        tree_potential(K, [1.5, 2.7, 0, 0], 3)
    # integer arrays of any width pass and are reduced; empty inputs stay valid
    c = Cochain(K, 3, np.array([4, 5, -6, 7], dtype=np.int32))
    assert c.values.dtype == np.int64 and c.values.tolist() == [1, 2, 0, 1]
    assert coboundary(K, np.array([5], dtype=np.uint8), 3).values.tolist() == [0, 0, 0, 0]
    assert fplinalg.rank(np.array([[1, 2]], dtype=np.int16), 3) == 1
    narrow = np.array([1, 2, 0, 0], dtype=np.int8)
    assert face_sums(K, narrow).tolist() == [0] and loop_evaluations(K, narrow) == [1, 2, 0, 0]
    assert tree_potential(K, narrow, 3).tolist() == [0]
    assert fplinalg.FpSubspace.from_rows([], 3, ambient_dim=2).dim == 0
