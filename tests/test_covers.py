import itertools
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdescent.complexes import (
    Cochain,
    EdgePath,
    GroupPresentation,
    build_presentation_complex,
    class_coordinates,
    h1_cocycle_basis,
    h1_dimension,
    parse_presentation,
)
from pdescent.covers import (
    _build_shift_cover,
    build_abelian_p_cover,
    build_cyclic_cover,
    vertex_values,
)
from pdescent.errors import (
    CocycleConditionError,
    DisconnectedCoverError,
    UndefinedVertexValueError,
)

from oracles import (
    combine_cochains,
    face_paths,
    presentation_loop,
    tuple_label_cover,
    tuple_label_lift,
    vertex_values_by_tree_paths,
)

TORUS = "p = 2\ngens = a b\nrel = abAB\n"
GENUS2 = "p = 2\ngens = a b c d\nrel = abABcdCD\n"
DATA = Path(__file__).parent / "data"


def wedge(n):
    return build_presentation_complex(
        GroupPresentation(generators=tuple("abcde"[:n]), relators=())
    )


def full_derived_cover(K, p):
    return build_abelian_p_cover(K, h1_cocycle_basis(K, p)[:], p)


def test_free_group_derived_cover_formula():
    # degree p^n cover of the wedge of n circles is free of rank p^n(n-1)+1
    for n, p, expect in ((2, 2, 5), (3, 2, 17), (2, 3, 10), (3, 3, 55)):
        cov = full_derived_cover(wedge(n), p)
        assert cov.degree == p**n
        assert h1_dimension(cov.total, p) == expect
        assert cov.total.num_faces == 0


def test_euler_characteristic_multiplicative():
    for text in (TORUS, GENUS2):
        pres, p = parse_presentation(text)
        K = build_presentation_complex(pres)
        cov = full_derived_cover(K, p)
        assert cov.total.euler_characteristic == cov.degree * K.euler_characteristic
        assert cov.total.num_vertices == cov.degree * K.num_vertices
        assert cov.total.num_edges == cov.degree * K.num_edges
        assert cov.total.num_faces == cov.degree * K.num_faces


def test_cover_rejects_dependent_classes():
    K = wedge(2)
    basis = h1_cocycle_basis(K, 2)
    dependent = basis[[0, 1, 0]]
    with pytest.raises(DisconnectedCoverError) as info:
        build_abelian_p_cover(K, dependent, 2)
    cert = np.asarray(info.value.certificate)
    coords = class_coordinates(K, dependent, 2)
    # the certificate is a left-kernel vector of the coordinate matrix
    assert cert.any()
    assert np.all((cert @ coords) % 2 == 0)


def test_cover_takes_a_matrix_of_residues():
    # the classes are rows of an n x |E| matrix of residues mod p, as a
    # slice of the H^1 basis is; a sequence of cochains is not such a matrix
    K = wedge(2)
    basis = h1_cocycle_basis(K, 3)
    for classes, message in (
        (basis[:][:, :1], "one column per edge"),
        ([[1, 0, 0]], "one column per edge"),
        (basis[0].values, "one column per edge"),
        ([[3, 0]], "not residues mod p = 3"),
        ([[1, 0], [0, -1]], "not residues mod p = 3"),
        (basis[:0], "at least one class"),
        ([basis[0], basis[1]], "not integers"),
    ):
        with pytest.raises(ValueError, match=message):
            build_abelian_p_cover(K, classes, 3)
    assert build_abelian_p_cover(K, [[1, 0], [0, 2]], 3).degree == 9


def test_cover_rejects_non_cocycles():
    # the faces of <a, b | aab, abAB, ab> sum a class to 2a + b, 0 and a + b;
    # the first face a class misses mod p is named, also when the classes
    # are dependent, so the face check must come before the dependency check
    K = build_presentation_complex(
        GroupPresentation(generators=("a", "b"), relators=("aab", "abAB", "ab"))
    )
    for p in (2, 3, 5):
        for values, face in (([1, 0], 2 if p == 2 else 0), ([0, 1], 0), ([1, p - 1], 0)):
            c = Cochain(K, p, np.array(values))
            assert not c.is_cocycle()
            for classes in ([c.values], [c.values, c.values]):
                with pytest.raises(CocycleConditionError, match=f"^face {face} attaching path"):
                    build_abelian_p_cover(K, classes, p)


def test_lift_path_projects_back():
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    cov = full_derived_cover(K, p)
    rng = np.random.default_rng(53)
    words = ["ab", "cdC", "abABcd", "Dc", "aBcD"]
    for start in range(cov.degree):
        for w in words:
            path = presentation_loop(K, pres, w)
            lift = cov.lift_path(path, start)
            assert lift.start == cov.lift_vertex(path.start, start)
            # projection of each step recovers the base path
            proj = [(int(e) // cov.degree, d) for e, d in lift.steps]
            assert proj == list(path.steps)
            # endpoint fiber matches the endpoint of the base path
            assert cov.total.path_end(lift) // cov.degree == K.path_end(path)


def test_lift_of_defining_class_loop_shifts_label():
    # the lift of a loop ends at the label shifted by the class evaluations
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    cov = build_abelian_p_cover(K, basis[:2], p)
    for w in ("ab", "ba", "acd", "bD"):
        loop = presentation_loop(K, pres, w)
        lift = cov.lift_path(loop, 0)
        end = cov.total.path_end(lift)
        label = cov.digits[end % cov.degree].tolist()
        assert label == [basis[i].evaluate(loop) % p for i in range(2)]


def test_pullback_evaluates_like_base():
    pres, p = parse_presentation(TORUS)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    c = basis[0]
    cov = build_abelian_p_cover(K, basis[:1], p)
    pull = cov.pullback(c)
    assert pull.is_cocycle()
    for w in ("a", "b", "ab", "aabb"):
        path = presentation_loop(K, pres, w)
        for start in range(cov.degree):
            assert pull.evaluate(cov.lift_path(path, start)) == c.evaluate(path)


def test_cyclic_cover_of_torus():
    pres, p = parse_presentation(TORUS)
    K = build_presentation_complex(pres)
    for order in range(1, 7):
        cov = build_cyclic_cover(K, [1, 0], order)
        assert cov.degree == order
        assert cov.total.num_vertices == order
        assert h1_dimension(cov.total, 2) == 2
        assert cov.total.euler_characteristic == 0


def test_cyclic_cover_needs_surjection():
    pres, _ = parse_presentation(TORUS)
    K = build_presentation_complex(pres)
    with pytest.raises(DisconnectedCoverError):
        build_cyclic_cover(K, [2, 0], 4)  # image is 2Z, index-4 cover disconnects
    with pytest.raises(DisconnectedCoverError):
        build_cyclic_cover(K, [0, 0], 2)


def test_cyclic_cover_weights_must_kill_faces():
    pres, _ = parse_presentation(TORUS)
    K = build_presentation_complex(pres)
    # abAB has zero signed count for every generator, so any weights work;
    # aab on a one-relator complex does not kill (1, 0)
    K2 = build_presentation_complex(
        GroupPresentation(generators=("a", "b"), relators=("aab",))
    )
    with pytest.raises(CocycleConditionError):
        build_cyclic_cover(K2, [1, 0], 3)
    # the error names the first face whose boundary the weights miss
    K3 = build_presentation_complex(
        GroupPresentation(generators=("a", "b"), relators=("abAB", "aab", "ab"))
    )
    with pytest.raises(CocycleConditionError, match=r"evaluate to 2 on the boundary of face 1$"):
        build_cyclic_cover(K3, [1, 0], 3)


def test_cyclic_weights_are_summed_exactly_and_must_fit_int64():
    K = build_presentation_complex(GroupPresentation(generators=("a", "b"), relators=("aaaa",)))
    # 4 * 2**62 wraps to 0 in int64; the exact sum is not a cocycle's
    with pytest.raises(CocycleConditionError, match=r"to 18446744073709551616 on the boundary"):
        build_cyclic_cover(K, [2**62, 1], 3)
    # numpy keeps 2**63 as uint64 and 2**66 as an object, each past int64
    for big in (2**63, 2**66, -(2**63) - 1):
        with pytest.raises(ValueError, match=f"weight {big} does not fit in a 64-bit integer"):
            build_cyclic_cover(K, [big, 1], 3)
    cov = build_cyclic_cover(K, np.array([0, 2**63 - 1], dtype=np.uint64), 3)
    assert cov.total.num_vertices == 3


def test_cyclic_weights_must_be_integers():
    K = build_presentation_complex(parse_presentation(TORUS)[0])
    with pytest.raises(ValueError, match=r"^weight 1\.5 is not an integer$"):
        build_cyclic_cover(K, [1.5, 0], 3)
    # integral numpy and Python types still build the cover
    for weights in ([1, 0], np.array([1, 0], dtype=np.uint8), [True, 0]):
        assert build_cyclic_cover(K, weights, 3).total.num_vertices == 3


def test_vertex_values_difference_property():
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    cov = build_abelian_p_cover(K, basis[:2], p)
    for c in (basis[0], basis[1]):
        vals = vertex_values(cov, c.values, p)
        pull = cov.pullback(c)
        # defining property: values jump by the pulled-back cochain along edges
        for e, (u, v) in enumerate(cov.total.edges):
            assert (vals[v] - vals[u]) % p == pull.values[e]
        # fibers of each residue split evenly
        counts = np.bincount(vals, minlength=p)
        assert all(int(x) == cov.total.num_vertices // p for x in counts)


def test_vertex_values_undefined_off_covering_span():
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    cov = build_abelian_p_cover(K, basis[:2], p)
    with pytest.raises(UndefinedVertexValueError) as info:
        vertex_values(cov, basis[2].values, p)
    loop = info.value.witness_loop
    # the witness is a genuine loop of the total complex where the pullback
    # of the class fails to vanish
    assert cov.total.path_end(loop) == loop.start
    assert cov.pullback(basis[2]).evaluate(loop) % p != 0


def test_deck_orbit_representatives():
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    cov = full_derived_cover(K, p)
    reps = cov.deck_orbit_representatives()
    assert len(reps) == K.num_faces
    assert len({r // cov.degree for r in reps}) == K.num_faces


def test_tower_of_covers_composes():
    # iterate twice and track the index through the composition
    pres, p = parse_presentation(TORUS)
    K = build_presentation_complex(pres)
    cov1 = full_derived_cover(K, p)
    K2 = cov1.total
    cov2 = build_abelian_p_cover(K2, h1_cocycle_basis(K2, p)[:1], p)
    assert cov2.base is K2
    assert cov2.total.num_vertices == cov1.degree * cov2.degree
    assert h1_dimension(cov2.total, p) >= 1


@settings(max_examples=100, deadline=None, database=None)
@given(
    st.sampled_from((TORUS, GENUS2)),
    st.sampled_from((2, 3, 5)),
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
)
def test_vertex_values_match_tree_path_walks(text, p, k, seed):
    # random combinations of the base classes: those in the covering span
    # have vertex values, the others must name the first failing edge; a
    # stack of them gives the one-row tables row by row, or fails at its
    # first row outside the span, with that row's witness
    K = build_presentation_complex(parse_presentation(text)[0])
    basis = h1_cocycle_basis(K, p)
    cov = build_abelian_p_cover(K, basis[:k], p)
    rng = np.random.default_rng(seed)
    stack = [
        combine_cochains(basis, rng.integers(0, p, size=len(basis)), p)
        for _ in range(int(rng.integers(1, 4)))
    ]
    tables, first_bad = [], None
    for i, c in enumerate(stack):
        expect, bad = vertex_values_by_tree_paths(cov.total, cov.pullback(c).values, p)
        tables.append(expect)
        if bad is None:
            assert vertex_values(cov, c.values, p).tolist() == expect
            continue
        with pytest.raises(UndefinedVertexValueError, match=f"through edge {bad} ") as info:
            vertex_values(cov, c.values, p)
        assert info.value.witness_loop == cov.total.fundamental_loop(bad)
        if first_bad is None:
            first_bad = (i, bad)
    rows = np.array([c.values for c in stack])
    if first_bad is None:
        assert vertex_values(cov, rows, p).tolist() == tables
    else:
        i, bad = first_bad
        with pytest.raises(UndefinedVertexValueError, match=f"^class {i} .* through edge {bad} ") as info:
            vertex_values(cov, rows, p)
        assert info.value.witness_loop == cov.total.fundamental_loop(bad)


def assert_matches_tuple_labels(cov, shifts, moduli, paths):
    """The cover and its lifts of `paths` from every start rank agree with
    the tuple-label oracle, and the digit table holds the oracle's labels."""
    edges, faces, basepoint, labels = tuple_label_cover(cov.base, shifts, moduli)
    assert cov.total.edges == tuple(edges)
    assert face_paths(cov.total) == tuple(faces)
    assert cov.total.basepoint == basepoint
    assert [tuple(row) for row in cov.digits.tolist()] == labels
    assert not cov.digits.flags.writeable
    for path in paths:
        for r in range(cov.degree):
            lift = cov.lift_path(path, r)
            assert (lift.start, lift.steps) == tuple_label_lift(
                shifts, moduli, path.start, path.steps, r
            )


def random_words(rng, K, count):
    """Random walks from the basepoint of a one-vertex complex."""
    return [
        EdgePath(
            start=K.basepoint,
            steps=tuple(
                (int(e), int(d))
                for e, d in zip(
                    rng.integers(0, K.num_edges, size=length),
                    rng.choice((1, -1), size=length),
                )
            ),
        )
        for length in rng.integers(0, 9, size=count)
    ]


def independent_classes(K, p, n, rng):
    """min(n, d_p) random combinations of the H^1 basis as matrix rows,
    independent because their coefficients on randomly chosen basis
    classes form an identity block."""
    basis = h1_cocycle_basis(K, p)[:]
    n = min(n, len(basis))
    coeffs = rng.integers(0, p, size=(n, len(basis)))
    coeffs[:, rng.choice(len(basis), size=n, replace=False)] = np.eye(n, dtype=np.int64)
    return coeffs @ basis % p


@settings(max_examples=80, deadline=None, database=None)
@given(
    st.sampled_from((TORUS, GENUS2, "p = 2\ngens = a b c\n")),
    st.sampled_from((2, 3, 5)),
    st.integers(1, 3),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_integer_labels_match_tuple_label_oracle(text, p, n1, n2, seed):
    # level one over the presentation complex, then (when small enough)
    # level two over its total complex, walked along lifted words
    rng = np.random.default_rng(seed)
    K = build_presentation_complex(parse_presentation(text)[0])
    classes = independent_classes(K, p, n1, rng)
    n1 = len(classes)
    cov = build_abelian_p_cover(K, classes, p)
    shifts = classes.T
    words = random_words(rng, K, 4)
    assert_matches_tuple_labels(cov, shifts, (p,) * n1, words)
    if n2 == 0 or p ** (n1 + n2) > 125:
        return
    classes2 = independent_classes(cov.total, p, n2, rng)
    n2 = len(classes2)
    cov2 = build_abelian_p_cover(cov.total, classes2, p)
    shifts2 = classes2.T
    paths = [cov.lift_path(w, int(r)) for w, r in zip(words, rng.integers(0, cov.degree, 4))]
    assert_matches_tuple_labels(cov2, shifts2, (p,) * n2, paths)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_cyclic_integer_labels_match_tuple_label_oracle(order, seed):
    rng = np.random.default_rng(seed)
    K = build_presentation_complex(parse_presentation(GENUS2)[0])
    # the relator has zero exponent sums, so any weights kill the face
    weights = [int(x) for x in rng.integers(-20, 21, size=K.num_edges)]
    try:
        cov = build_cyclic_cover(K, weights, order)
    except DisconnectedCoverError:
        return
    shifts = np.array(weights).reshape(-1, 1) % order
    assert_matches_tuple_labels(cov, shifts, (order,), random_words(rng, K, 4))


def test_shift_cover_rejects_faces_that_do_not_close():
    # shifts (1, 0) sum to 2 on the relator aab, nonzero mod 3
    K = build_presentation_complex(GroupPresentation(generators=("a", "b"), relators=("aab",)))
    with pytest.raises(CocycleConditionError, match="face 0 attaching path does not close"):
        _build_shift_cover(K, np.array([[1], [0]]), (3,))
    # the same shifts close around abAB, so the first face that does not is face 1
    K = build_presentation_complex(GroupPresentation(("a", "b"), ("abAB", "aab")))
    with pytest.raises(CocycleConditionError, match="face 1 attaching path does not close"):
        _build_shift_cover(K, np.array([[1], [0]]), (3,))
    # over (Z/3)^2 the shifts a = (1, 1), b = (1, 0) sum to (3, 2) around aab:
    # 0 in the first digit, so only the second one leaves the lift open
    K = build_presentation_complex(GroupPresentation(("a", "b"), ("aab",)))
    with pytest.raises(CocycleConditionError, match="face 0 attaching path does not close"):
        _build_shift_cover(K, np.array([[1, 1], [1, 0]]), (3, 3))


def dp_and_fingerprint(text):
    """d_p of a presentation and the multiset of d_p over its index-p normal subgroups.

    One Z/p cover per line of H^1(K; F_p), each defined by the combination
    of echelon basis rows whose first nonzero coefficient is 1.
    """
    pres, p = parse_presentation(text)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)[:]
    lines = [
        c
        for c in itertools.product(range(p), repeat=len(basis))
        if any(c) and next(x for x in c if x) == 1
    ]
    classes = np.array(lines, dtype=np.int64) @ basis % p
    covers = (build_abelian_p_cover(K, c[None, :], p) for c in classes)
    return h1_dimension(K, p), dict(Counter(h1_dimension(cov.total, p) for cov in covers))


FINGERPRINTS = {
    "genus2_p2.txt": (4, {6: 15}),
    "genus2_p3.txt": (4, {8: 40}),
    "genus2_p5.txt": (4, {12: 156}),
    "tworel_p3.txt": (3, {5: 12, 7: 1}),
    "z2_p2.txt": (1, {0: 1}),
}

# each generator list and relator list defines the group of the data file named first
TIETZE_MOVES = [
    pytest.param("genus2_p2.txt", "a b c d e", ["abABcdCD", "eBA"], id="genus2_p2-add-generator"),
    pytest.param(
        "genus2_p2.txt", "a b c d", ["abABcdCD", "abABcdCDabABcdCD"], id="genus2_p2-add-square"
    ),
    pytest.param(
        "genus2_p2.txt", "a b c d", ["abABcdCD", "cabABcdCDC"], id="genus2_p2-add-conjugate"
    ),
    pytest.param("genus2_p2.txt", "a b c d", ["bABcdCDa"], id="genus2_p2-rotate"),
    pytest.param("genus2_p2.txt", "a b c d", ["dcDCbaBA"], id="genus2_p2-invert"),
    pytest.param("genus2_p2.txt", "w x y z", ["wxWXyzYZ"], id="genus2_p2-rename"),
    pytest.param("genus2_p2.txt", "d c b a", ["abABcdCD"], id="genus2_p2-reorder"),
    pytest.param("genus2_p3.txt", "a b c d e", ["abABcdCD", "eBA"], id="genus2_p3-add-generator"),
    pytest.param("genus2_p5.txt", "x y z w", ["xyXYzwZW"], id="genus2_p5-rename"),
    pytest.param(
        "tworel_p3.txt", "a b c d x", ["abAB", "acaCAC", "xAcc"], id="tworel_p3-add-generator"
    ),
    pytest.param("tworel_p3.txt", "d c b a", ["abAB", "acaCAC"], id="tworel_p3-reorder"),
]


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_index_p_fingerprint_of_the_data_presentations(name):
    assert dp_and_fingerprint((DATA / name).read_text()) == FINGERPRINTS[name]


@pytest.mark.parametrize("name, gens, relators", TIETZE_MOVES)
def test_dp_and_fingerprint_survive_tietze_moves(name, gens, relators):
    # both depend only on the group, while a move changes the complex,
    # its spanning tree, its face rows and so its pivots
    _, p = parse_presentation((DATA / name).read_text())
    text = f"p = {p}\ngens = {gens}\n" + "".join(f"rel = {r}\n" for r in relators)
    assert dp_and_fingerprint(text) == FINGERPRINTS[name]
