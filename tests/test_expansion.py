import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdescent.complexes import (
    Cochain,
    EdgeEnds,
    GroupPresentation,
    TwoComplex,
    build_presentation_complex,
    coboundary,
    h1_cocycle_basis,
    parse_presentation,
)
from pdescent.covers import build_abelian_p_cover, vertex_values
from pdescent.errors import CocycleConditionError, EnumerationCapError, TrivialClassError
from pdescent.expansion import (
    SWEEPS,
    SkeletonGraph,
    _first_min_ratio,
    _greedy_descent,
    _sweep_min,
    cheeger_constant,
    expansion_bound_report,
    minimum_support_representative,
    relative_size,
)

from oracles import (
    brute_cheeger,
    brute_relative_size,
    cochain_support,
    greedy_descent_every_vertex,
    greedy_descent_full_recount,
    heuristic_cheeger_by_edge_loops,
    laplacian_by_edge_loops,
    sweep_min_full_recount,
)

TORUS = "p = 2\ngens = a b\nrel = abAB\n"


def cycle_complex(n):
    return TwoComplex(n, [(i, (i + 1) % n) for i in range(n)])


def complete_complex(n):
    return TwoComplex(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_cheeger_known_graphs():
    # C4: cut 2 edges / 2 vertices; C6: 2/3; K4: 4 edges leave any pair
    assert cheeger_constant(SkeletonGraph.from_complex(cycle_complex(4))) == 1
    assert cheeger_constant(SkeletonGraph.from_complex(cycle_complex(6))) == Fraction(2, 3)
    assert cheeger_constant(SkeletonGraph.from_complex(complete_complex(4))) == 2
    # a single edge: the only cut has ratio 1
    assert cheeger_constant(SkeletonGraph.from_complex(TwoComplex(2, [(0, 1)]))) == 1
    # K_9 on 0..8 and K_8 on 9..16 joined by one bridge: only the K_8 side
    # cuts 1 edge, and its mask 0x1fe00 lies past the first block of 2^16 masks
    edges = complete_complex(9).edges + tuple((u + 9, v + 9) for u, v in complete_complex(8).edges)
    bridged = SkeletonGraph.from_complex(TwoComplex(17, edges + ((8, 9),)))
    assert cheeger_constant(bridged) == Fraction(1, 8)


def test_first_min_ratio_compares_exactly():
    # 2**53 + 1 and 2**53 are one float, so the float argmin alone picks index 0
    cuts = np.array([2**53 + 1, 2**53, 2**53], dtype=np.int64)
    assert _first_min_ratio(cuts, np.ones(3, dtype=np.int64)) == 1
    # equal ratios: the first one wins
    assert _first_min_ratio(np.array([3, 1, 2, 1]), np.array([3, 2, 4, 2])) == 1


def test_cheeger_matches_brute_force():
    rng = np.random.default_rng(101)
    for _ in range(15):
        n = int(rng.integers(3, 8))
        edges = [(i, (i + 1) % n) for i in range(n)]
        extra = int(rng.integers(0, 4))
        for _ in range(extra):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            edges.append((u, v))  # parallel edges and loops allowed
        K = TwoComplex(n, edges)
        g = SkeletonGraph.from_complex(K)
        if not g.edge_ends.reaches_all:
            continue
        assert cheeger_constant(g) == brute_cheeger(n, edges)


def test_cheeger_heuristic_upper_bounds_exact():
    rng = np.random.default_rng(103)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        edges = [(i, (i + 1) % n) for i in range(n)]
        for _ in range(3):
            edges.append((int(rng.integers(0, n)), int(rng.integers(0, n))))
        g = SkeletonGraph.from_complex(TwoComplex(n, edges))
        if not g.edge_ends.reaches_all:
            continue
        exact = cheeger_constant(g, mode="exact")
        upper = cheeger_constant(g, mode="heuristic", seed=1)
        assert upper >= exact


def test_cheeger_rejects_disconnected_graphs():
    # edges 0-1, 2-3 and a loop at 1: two components
    graph = SkeletonGraph(4, EdgeEnds.of(4, [0, 2, 1], [1, 3, 1]))
    assert not graph.edge_ends.reaches_all
    for mode in ("exact", "heuristic"):
        with pytest.raises(ValueError, match="graph is not connected"):
            cheeger_constant(graph, mode=mode)
    assert not SkeletonGraph(3, EdgeEnds.of(3, [0], [1])).edge_ends.reaches_all


def test_graph_of_a_complex_shares_its_edge_end_table():
    # loops, parallel edges and a cover's edges in their own order
    K = TwoComplex(4, [(0, 1), (1, 1), (1, 0), (2, 3), (3, 0), (0, 1)])
    pres, p = parse_presentation((DATA / "genus2_p3.txt").read_text())
    base = build_presentation_complex(pres)
    cover = build_abelian_p_cover(base, h1_cocycle_basis(base, p)[:2], p).total
    for complex_ in (K, cover):
        graph = SkeletonGraph.from_complex(complex_)
        assert graph.edge_ends is complex_.edge_ends
        want = EdgeEnds.of(graph.num_vertices, *zip(*complex_.edges))
        for name in ("offsets", "vertex", "other", "edge", "sign"):
            assert np.array_equal(getattr(graph.edge_ends, name), getattr(want, name)), name


def test_heuristic_cheeger_builds_no_edge_tuples():
    cov, _, _ = _tower("genus2_p2.txt", 2)
    K = cov.total
    assert cheeger_constant(SkeletonGraph.from_complex(K), mode="heuristic") > 0
    assert "edges" not in K.__dict__


@pytest.mark.parametrize("depth", [4, 5])
def test_heuristic_cheeger_on_the_p2_towers_matches_the_dense_projection(depth):
    # lambda_2 of these V=256 and V=1024 covers has multiplicity 4, so a
    # dense eigenvector is one pick among many; the swept vector is the
    # seeded start direction's projection on the whole eigenspace
    cov, _, _ = _tower("genus2_p2.txt", depth)
    graph = SkeletonGraph.from_complex(cov.total)
    vals = np.linalg.eigvalsh(laplacian_by_edge_loops(cov.total))
    assert np.count_nonzero(vals[1:] - vals[1] <= 1e-8) == 4
    got = cheeger_constant(graph, mode="heuristic", seed=5)
    assert got == cheeger_constant(graph, mode="heuristic", seed=5)
    assert got == heuristic_cheeger_by_edge_loops(cov.total, seed=5)


def test_cheeger_caps_exact_enumeration():
    big = cycle_complex(30)
    with pytest.raises(EnumerationCapError):
        cheeger_constant(SkeletonGraph.from_complex(big), mode="exact")
    # heuristic still runs
    assert cheeger_constant(SkeletonGraph.from_complex(big), mode="heuristic") > 0


@st.composite
def multigraph_cases(draw):
    """A connected multigraph with loops and parallel edges, a cochain on
    it and a vertex order.  The greedy keeps a table of V*p hit counts
    only while V*p is at most the edge-end count plus V: small p fall on
    both sides of that rule, p = 13 above it, where the greedy recounts."""
    p = draw(st.sampled_from((2, 3, 5, 7, 13)))
    n = draw(st.integers(1, 10))
    vertex = st.integers(0, n - 1)
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]  # spanning tree
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=12))  # loops when u == v
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=6))  # parallel edges
    order = draw(st.permutations(range(len(edges))))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [edges[i][::-1] if flip else edges[i] for i, flip in zip(order, flips)]
    K = TwoComplex(n, edges, basepoint=draw(vertex))
    values = draw(st.lists(st.integers(0, p - 1), min_size=len(edges), max_size=len(edges)))
    return K, Cochain(K, p, np.array(values, dtype=np.int64)), draw(st.permutations(range(n)))


def _same_as_edge_loop_versions(K, alpha, seeds, exact=None):
    """Heuristic Cheeger and the upper relative size agree with the
    versions that loop over edges and rescore every vertex in every pass.

    The edge-loop Cheeger gives None where two projected entries lie within
    1e-9 of each other, since rounding then decides their order in either
    version.  Given the exact Cheeger constant, such a heuristic value is
    still bounded: at least exact, at most the best sweep of the SWEEPS
    random orders, which are the generator's draws after the start vector.
    """
    n = K.num_vertices
    if n >= 2:
        graph = SkeletonGraph.from_complex(K)
        for seed in seeds:
            got = cheeger_constant(graph, mode="heuristic", seed=seed)
            want = heuristic_cheeger_by_edge_loops(K, seed=seed)
            if want is not None:
                assert got == want
            elif exact is not None:
                rng = np.random.default_rng(seed)
                rng.standard_normal(n)  # the start vector
                orders = [np.argsort(rng.standard_normal(n), kind="stable") for _ in range(SWEEPS)]
                sweeps = [Fraction(*sweep_min_full_recount(K, o)) for o in orders]
                assert exact <= got <= min(sweeps)
    rep, size = _greedy_descent(K, alpha)
    ref_values, ref_size = greedy_descent_every_vertex(K, alpha)
    assert size == ref_size
    assert np.array_equal(rep.values, ref_values)
    if K.num_edges and not alpha.has_trivial_class():
        assert relative_size(K, alpha, mode="upper") == Fraction(ref_size, K.num_edges)


@settings(max_examples=300, deadline=None, database=None)
@given(multigraph_cases(), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
def test_incremental_sweep_and_greedy_match_full_recount(case, seeds):
    K, alpha, order = case
    graph = SkeletonGraph.from_complex(K)
    assert _sweep_min(graph.edge_ends, [order]) == sweep_min_full_recount(K, order)
    exact = None
    if K.num_vertices >= 2:
        # exact mode reads its edges off the edge-end table
        exact = brute_cheeger(K.num_vertices, K.edges)
        assert cheeger_constant(graph) == exact
    rep, size = _greedy_descent(K, alpha)
    ref_values, ref_size = greedy_descent_full_recount(K, alpha)
    assert size == ref_size == len(cochain_support(rep))
    assert np.array_equal(rep.values, ref_values)
    _same_as_edge_loop_versions(K, alpha, seeds, exact)


def test_greedy_at_a_large_prime_keeps_no_hit_table():
    # at p = 65521 a table of V*p hit counts would outgrow the edge-end
    # table, so each scoring counts only the values its vertex's ends hit:
    # the peak holds not even one row of p counts, whatever V is
    p = 65521
    peaks = []
    for n in (16, 64):
        rng = np.random.default_rng(n)
        chords = rng.integers(0, n, size=(n, 2)).tolist()
        K = TwoComplex(n, [(i, (i + 1) % n) for i in range(n)] + [tuple(e) for e in chords])
        alpha = Cochain(K, p, rng.integers(0, p, size=K.num_edges))
        assert K.edge_ends.offsets[-1] + n < n * p  # built before the measured call
        tracemalloc.start()
        try:
            rep, size = _greedy_descent(K, alpha)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        if n == 16:
            ref_values, ref_size = greedy_descent_every_vertex(K, alpha)
            assert size == ref_size < np.count_nonzero(alpha.values)
            assert np.array_equal(rep.values, ref_values)
    assert max(peaks) < 8 * p  # one list of p counts holds 8*p bytes of pointers


@st.composite
def abelian_cover_cases(draw):
    """A rank-1 or rank-2 abelian p-cover of a small presentation complex,
    a nontrivial cocycle on it (a class plus a random coboundary) and seeds."""
    p = draw(st.sampled_from((2, 3, 5)))
    rels = draw(
        st.sampled_from(("gens = a b", "gens = a b\nrel = abAB", "gens = a b c d\nrel = abABcdCD"))
    )
    pres, _ = parse_presentation(f"p = {p}\n{rels}\n")
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    picks = draw(st.lists(st.integers(0, len(basis) - 1), min_size=1, max_size=2, unique=True))
    total = build_abelian_p_cover(K, basis[picks], p).total
    residues = st.integers(0, p - 1)
    cover_basis = h1_cocycle_basis(total, p)
    coeffs = draw(st.lists(residues, min_size=len(cover_basis), max_size=len(cover_basis)))
    values = np.zeros(total.num_edges, dtype=np.int64)
    for c, b in zip(coeffs, cover_basis):
        values += c * b.values
    n = total.num_vertices
    f = np.array(draw(st.lists(residues, min_size=n, max_size=n)))
    alpha = Cochain(total, p, values + coboundary(total, f, p).values)
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
    return total, alpha, seeds


@settings(max_examples=60, deadline=None, database=None)
@given(abelian_cover_cases())
def test_expansion_diagnostics_match_edge_loop_versions_on_abelian_covers(case):
    K, alpha, seeds = case
    assume(not alpha.has_trivial_class())
    _same_as_edge_loop_versions(K, alpha, seeds)


def test_relative_size_exact_matches_brute_force():
    rng = np.random.default_rng(107)
    cases = []
    for _ in range(15):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(2, 5))
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges.append((0, int(rng.integers(0, n))))
        cases.append((p, edges, rng.integers(0, p, size=len(edges))))
    # the triangle with every edge at 1 over F_2 has three minimisers,
    # and the first in the enumeration is not the first with vertex 2
    # most significant
    cases.append((2, [(0, 1), (1, 2), (2, 0)], [1, 1, 1]))
    for p, edges, values in cases:
        n = len({v for e in edges for v in e})
        K = TwoComplex(n, edges)
        alpha = Cochain(K, p, values)
        if alpha.has_trivial_class():
            continue
        size, f = brute_relative_size(n, edges, [int(x) for x in alpha.values], p)
        assert relative_size(K, alpha, mode="exact") == Fraction(size, len(edges))
        # the first minimiser in the enumeration, with vertex 1 most significant
        rep, _ = minimum_support_representative(K, alpha)
        assert rep.values.tolist() == [(a + f[v] - f[u]) % p for a, (u, v) in zip(alpha.values, edges)]


def test_relative_size_upper_bounds_exact():
    rng = np.random.default_rng(109)
    for _ in range(15):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(2, 5))
        edges = [(i, (i + 1) % n) for i in range(n)] + [(0, 0)]
        K = TwoComplex(n, edges)
        alpha = Cochain(K, p, rng.integers(0, p, size=len(edges)))
        if alpha.has_trivial_class():
            continue
        assert relative_size(K, alpha, mode="upper") >= relative_size(K, alpha, mode="exact")


def test_relative_size_rejects_a_non_cocycle():
    # on <a | aa> the face takes a twice, so a = 1 is no cocycle mod 3
    K = build_presentation_complex(GroupPresentation(generators=("a",), relators=("aa",)))
    alpha = Cochain(K, 3, [1])
    for mode in ("exact", "upper"):
        with pytest.raises(CocycleConditionError, match="relative size needs a cocycle"):
            relative_size(K, alpha, mode=mode)
    with pytest.raises(CocycleConditionError, match="relative size needs a cocycle"):
        minimum_support_representative(K, alpha)


def test_relative_size_rejects_trivial_class():
    K = cycle_complex(4)
    rng = np.random.default_rng(113)
    df = coboundary(K, rng.integers(0, 3, size=4), 3)
    with pytest.raises(TrivialClassError):
        relative_size(K, df, mode="exact")


def test_relative_size_rejects_cochain_of_another_complex():
    K = cycle_complex(4)
    alpha = Cochain(cycle_complex(4), 3, [1, 0, 0, 0])  # same shape, other complex
    longer = Cochain(cycle_complex(5), 3, [1, 0, 0, 0, 0])
    for c in (alpha, longer):
        for mode in ("exact", "upper"):
            with pytest.raises(ValueError, match="does not live on K"):
                relative_size(K, c, mode=mode)
        with pytest.raises(ValueError, match="does not live on K"):
            minimum_support_representative(K, c)


def test_minimum_support_representative_is_same_class():
    pres, p = parse_presentation(TORUS)
    K = build_presentation_complex(pres)
    cov = build_abelian_p_cover(K, h1_cocycle_basis(K, p)[:], p)
    K4 = cov.total
    basis = h1_cocycle_basis(K4, p)
    for alpha in list(basis)[:3]:
        rep, size = minimum_support_representative(K4, alpha)
        assert len(cochain_support(rep)) == size
        # same class: evaluations agree on every fundamental loop
        for loop in K4.fundamental_loops():
            assert rep.evaluate(loop) == alpha.evaluate(loop)
        assert size <= len(cochain_support(alpha))


def test_minimum_support_cap():
    K = cycle_complex(12)
    alpha = Cochain(K, 5, np.array([1] + [0] * 11))
    with pytest.raises(EnumerationCapError):
        minimum_support_representative(K, alpha, cap=100)


def test_expansion_bound_wedge_degree2_equality():
    # degree-2 cover of the wedge of two circles: both sides equal 2
    pres = GroupPresentation(generators=("a", "b"), relators=())
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, 2)
    cov = build_abelian_p_cover(K, basis[:1], 2)
    alpha = basis[0]
    report = expansion_bound_report(cov, alpha)
    assert report.cheeger == 2
    assert report.bound == 2
    assert report.holds
    assert report.cut_holds
    assert report.fiber_counts == (1, 1)


def test_expansion_bound_on_small_covers():
    rng = np.random.default_rng(127)
    cases = [
        ("p = 2\ngens = a b\n", 2, 2),
        ("p = 2\ngens = a b\nrel = abAB\n", 2, 2),
        ("p = 3\ngens = a b\n", 3, 1),
        ("p = 2\ngens = a b c d\nrel = abABcdCD\n", 2, 2),
    ]
    for text, p, k in cases:
        pres, _ = parse_presentation(text)
        K = build_presentation_complex(pres)
        basis = h1_cocycle_basis(K, p)
        cov = build_abelian_p_cover(K, basis[:k], p)
        for i in range(k):
            report = expansion_bound_report(cov, basis[i])
            assert report.holds
            assert report.cut_holds
            assert all(c == cov.total.num_vertices // p for c in report.fiber_counts)
            assert report.zero_cut <= report.degree_times_support


def test_vertex_value_classes_split_fibers():
    pres, p = parse_presentation(TORUS)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    cov = build_abelian_p_cover(K, basis[:], p)
    vals = vertex_values(cov, basis[1].values, p)
    assert sorted(np.bincount(vals, minlength=p)) == [cov.total.num_vertices // p] * p


DATA = Path(__file__).parent / "data"


def _tower(path, depth):
    """The rank-2 tower of a presentation file: the first two echelon
    classes of each level define the next cover."""
    pres, p = parse_presentation((DATA / path).read_text())
    K = build_presentation_complex(pres)
    for _ in range(depth):
        basis = h1_cocycle_basis(K, p)
        cov = build_abelian_p_cover(K, basis[:2], p)
        K = cov.total
    return cov, basis, p


def expansion_fixture_document(path, depth, with_reports=True):
    """Upper relative sizes and, with_reports, expansion-bound reports
    (heuristic Cheeger) on a rank-2 cover."""
    cov, base_basis, p = _tower(path, depth)
    K = cov.total
    rng = np.random.default_rng(2024)
    cover_basis = h1_cocycle_basis(K, p)
    inputs = [(f"cover class {i}", cover_basis[i]) for i in (*range(6), -2, -1)]
    inputs += [(f"pullback of base class {i}", cov.pullback(base_basis[i])) for i in (2, 3)]
    inputs += [
        (f"{name} + coboundary", Cochain(K, p, c.values + coboundary(K, f, p).values))
        for (name, c), f in zip(list(inputs), rng.integers(0, p, size=(len(inputs), K.num_vertices)))
    ]
    doc = {
        "p": p,
        "vertices": K.num_vertices,
        "edges": K.num_edges,
        "relsize_upper": [
            {"cochain": name, "value": str(relative_size(K, c, mode="upper"))}
            for name, c in inputs
        ],
    }
    if with_reports:
        reports = []
        for i in range(2):
            r = expansion_bound_report(cov, base_basis[i], cheeger_mode="heuristic")
            fields = {k: str(v) if isinstance(v, Fraction) else v for k, v in vars(r).items()}
            reports.append({"defining_class": i, **fields})
        doc["expansion_bound"] = reports
    return doc


def test_expansion_bound_holds_on_the_depth3_p2_cover():
    # the heuristic sweep alone finds 5/8 here, above the bound 1/2; the
    # zero class's cut, 16 edges over 32 vertices, meets it
    cov, base_basis, _ = _tower("genus2_p2.txt", 3)
    assert cov.total.num_vertices == 64
    for i in range(2):
        r = expansion_bound_report(cov, base_basis[i], cheeger_mode="heuristic")
        assert r.holds
        assert r.cheeger == Fraction(r.zero_cut, r.fiber_counts[0]) == r.bound == Fraction(1, 2)


EXPANSION_FIXTURES = [
    ("genus2_p2.txt", 3, "expansion_p2_rank2_depth3.json"),
    ("genus2_p3.txt", 2, "expansion_p3_rank2_depth2.json"),
]
RELSIZE_FIXTURES = [
    ("genus2_p2.txt", 4, "relsize_p2_rank2_depth4.json"),
    ("genus2_p5.txt", 2, "relsize_p5_rank2_depth2.json"),
]


@pytest.mark.parametrize("path, depth, expected", EXPANSION_FIXTURES)
def test_expansion_diagnostics_match_golden_fixtures(path, depth, expected):
    # the fixtures were written by the full-recount sweeps and greedy
    # descent; the incremental versions must reproduce them byte for byte
    text = json.dumps(expansion_fixture_document(path, depth), indent=2) + "\n"
    assert text.encode() == (DATA / expected).read_bytes()


@pytest.mark.parametrize("path, depth, expected", RELSIZE_FIXTURES)
def test_upper_relative_sizes_match_golden_fixtures(path, depth, expected):
    # recorded by the greedy descent that rescored every vertex in every
    # pass; no heuristic Cheeger value is in them, so they do not depend
    # on the eigenvector the BLAS returns
    doc = expansion_fixture_document(path, depth, with_reports=False)
    assert (json.dumps(doc, indent=2) + "\n").encode() == (DATA / expected).read_bytes()


def test_golden_fixtures_do_not_depend_on_asserts(tmp_path):
    # `python -O` strips every assert; the four documents, written again
    # by a subprocess with asserts stripped, must match byte for byte
    cases = [(*c, True) for c in EXPANSION_FIXTURES] + [(*c, False) for c in RELSIZE_FIXTURES]
    code = (
        "import json, sys\n"
        "if __debug__: sys.exit('asserts are enabled')\n"
        "from test_expansion import expansion_fixture_document\n"
        "for path, depth, expected, with_reports in json.loads(sys.argv[1]):\n"
        "    doc = expansion_fixture_document(path, depth, with_reports)\n"
        "    with open(f'{sys.argv[2]}/{expected}', 'wb') as fh:\n"
        "        fh.write((json.dumps(doc, indent=2) + '\\n').encode())\n"
    )
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, json.dumps(cases), str(tmp_path)],
        env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    for _, _, expected, _ in cases:
        assert (tmp_path / expected).read_bytes() == (DATA / expected).read_bytes(), expected
