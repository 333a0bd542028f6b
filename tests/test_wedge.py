import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdescent import complexes, covers, fplinalg
from pdescent.complexes import (
    Cochain,
    GroupPresentation,
    build_presentation_complex,
    class_coordinates,
    face_sums,
    h1_cocycle_basis,
    parse_presentation,
    tree_potential,
)
from pdescent.covers import build_abelian_p_cover, build_cyclic_cover, vertex_values
from pdescent.errors import CocycleConditionError, InvariantError, UnsupportedCoverError
from pdescent.wedge import (
    build_wedge_family,
    commutator_certificate,
    commutator_path,
    dual_loops,
    wedge_cochain,
)

from oracles import (
    cochain_support,
    combine_cochains,
    greedy_complement,
    mod_rank,
    presentation_loop,
)

GENUS2 = "p = 2\ngens = a b c d\nrel = abABcdCD\n"
TORUS = "p = 2\ngens = a b\nrel = abAB\n"
ROSE3 = "p = 2\ngens = a b c\n"


def wedge_complex(n):
    return build_presentation_complex(
        GroupPresentation(generators=tuple("abcde"[:n]), relators=())
    )


def rows(cochains):
    """A family of cochains as the matrix that the wedge functions take."""
    return np.array([c.values for c in cochains])


def random_word(rng, gens, length):
    letters = list(gens) + [g.upper() for g in gens]
    return "".join(letters[int(i)] for i in rng.integers(0, len(letters), size=length))


def check_commutator_identity(K, pres, p, cov, pairs, rng):
    c1, c2 = (Cochain(K, p, c) for c in cov.shifts.T[:2])
    w = wedge_cochain(cov, c1, c2)
    for _ in range(pairs):
        g = presentation_loop(K, pres, random_word(rng, pres.generators, int(rng.integers(1, 6))))
        h = presentation_loop(K, pres, random_word(rng, pres.generators, int(rng.integers(1, 6))))
        comm = commutator_path(K, g, h)
        expect = (c1.evaluate(h) * c2.evaluate(g) - c1.evaluate(g) * c2.evaluate(h)) % p
        # the identity holds on the lift at every deck label
        for start in range(cov.degree):
            assert w.evaluate(cov.lift_path(comm, start)) % p == expect


def test_commutator_identity_wedge2_p2():
    pres = GroupPresentation(generators=("a", "b"), relators=())
    K = build_presentation_complex(pres)
    cov = build_abelian_p_cover(K, h1_cocycle_basis(K, 2)[:], 2)
    check_commutator_identity(K, pres, 2, cov, 40, np.random.default_rng(59))


def test_commutator_identity_wedge3_p2():
    pres = GroupPresentation(generators=("a", "b", "c"), relators=())
    K = build_presentation_complex(pres)
    cov = build_abelian_p_cover(K, h1_cocycle_basis(K, 2)[:], 2)  # degree 8
    check_commutator_identity(K, pres, 2, cov, 30, np.random.default_rng(61))


def test_commutator_identity_wedge2_p3():
    pres = GroupPresentation(generators=("a", "b"), relators=())
    K = build_presentation_complex(pres)
    cov = build_abelian_p_cover(K, h1_cocycle_basis(K, 3)[:], 3)  # degree 9
    check_commutator_identity(K, pres, 3, cov, 30, np.random.default_rng(67))


def test_wedge_support_containment():
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    cov = build_abelian_p_cover(K, basis[:], p)
    for c1 in (basis[0], basis[1]):
        for c2 in (basis[0], basis[1]):
            w = wedge_cochain(cov, c1, c2)
            lifted = {
                e
                for e in range(cov.total.num_edges)
                if e // cov.degree in cochain_support(c1)
            }
            assert cochain_support(w) <= lifted


def wedge_rows(cov, family, complement, p):
    """The wedges U_i ∧ C_j, U-major, with C's tables from `vertex_values`."""
    tables = vertex_values(cov, complement, p)[:, cov.total.arrays.init]
    pulled = np.repeat(family, cov.degree, axis=1)
    return (pulled[:, None, :] * tables % p).reshape(-1, cov.total.num_edges)


def test_family_size_lower_bound_genus2():
    # (n - u) u - r with n = 4 covering classes, r = 1 deck face orbit
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    cov = build_abelian_p_cover(K, basis[:], p)
    for u in (1, 2):
        fam = build_wedge_family(cov, basis[:u])
        n = len(basis)
        r = cov.base.num_faces
        assert len(fam.span_basis) == u * len(fam.complement)
        # each complement class has one table, shared by the |U| wedges with it
        assert np.array_equal(fam.span_basis, wedge_rows(cov, basis[:u], fam.complement, p))
        assert fam.size >= (n - u) * u - r
        assert not np.any(face_sums(cov.total, fam.cocycle_basis) % p)
        # classes independent in H^1 of the total complex
        coords = class_coordinates(cov.total, fam.cocycle_basis, p).tolist()
        assert mod_rank(coords, p) == fam.size


def random_cover_and_family(p, text, twice, u, seed):
    """A random abelian p-cover and a random u-dimensional family on its base.

    The base is a presentation complex or one of its covers (many
    vertices). The defining classes and the family are basis rows plus
    random coboundaries, so they do not vanish on the spanning tree.
    Returns the cover, the raw defining classes and the family.
    """
    rng = np.random.default_rng(seed)
    K = build_presentation_complex(parse_presentation(text)[0])
    if twice:
        K = build_abelian_p_cover(K, h1_cocycle_basis(K, p)[:2], p).total
    a = K.arrays
    basis = h1_cocycle_basis(K, p)
    n = len(basis)

    def plus_coboundaries(rows):
        pots = rng.integers(0, p, size=(len(rows), K.num_vertices))
        return (rows + pots[:, a.term] - pots[:, a.init]) % p

    picks = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False)
    classes = plus_coboundaries(basis[picks])
    cov = build_abelian_p_cover(K, classes, p)
    coeffs = rng.integers(0, p, size=(u, n))
    while mod_rank(coeffs.tolist(), p) < u:
        coeffs = rng.integers(0, p, size=(u, n))
    return cov, classes, plus_coboundaries(coeffs @ basis[:] % p)


@settings(max_examples=40, deadline=None, database=None)
@given(
    st.sampled_from((2, 3, 5)),
    st.sampled_from((GENUS2, TORUS, ROSE3)),
    st.booleans(),
    st.sampled_from((1, 2)),
    st.integers(0, 2**32 - 1),
)
def test_tables_from_deck_digits_match_vertex_values(p, text, twice, u, seed):
    cov, classes, family = random_cover_and_family(p, text, twice, u, seed)
    K = cov.base
    fam = build_wedge_family(cov, family)
    assert np.array_equal(fam.span_basis, wedge_rows(cov, family, fam.complement, p))
    u_coords = class_coordinates(K, family, p).tolist()
    cover_coords = class_coordinates(K, classes, p).tolist()
    expect = greedy_complement(u_coords, cover_coords, p)
    assert class_coordinates(K, fam.complement, p).tolist() == expect


@settings(max_examples=40, deadline=None, database=None)
@given(
    st.sampled_from((2, 3, 5)),
    st.sampled_from((GENUS2, TORUS, ROSE3)),
    st.booleans(),
    st.sampled_from((1, 2)),
    st.integers(0, 2**32 - 1),
)
def test_orbit_constraints_read_off_the_base_match_the_cover_faces(p, text, twice, u, seed):
    # the constraint matrix handed to kernel_basis, summed over base faces
    # from the deck digits, equals the wedges' sums over the zero-rank lift
    # of every base face, read on the built cover
    cov, _, family = random_cover_and_family(p, text, twice, u, seed)
    seen, kernel_basis = [], fplinalg.kernel_basis
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fplinalg, "kernel_basis", lambda m, p: seen.append(m) or kernel_basis(m, p))
        fam = build_wedge_family(cov, family)
    (constraints,) = seen
    oracle = face_sums(cov.total, fam.span_basis)[:, :: cov.degree].T % p
    assert constraints.shape == (cov.base.num_faces, len(fam.span_basis))
    assert np.array_equal(constraints, oracle)


def test_wedge_walks_the_cover_tree_once(monkeypatch):
    # the cover integrates its classes along the base tree once, for their
    # tree-vanishing shifts; the wedge integrates only the family along the
    # base tree, for its class coordinates, and the cover's tree once, in
    # the final check that the cocycle classes are independent
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    calls = []

    def walked(K, values, p):
        calls.append(K)
        return tree_potential(K, values, p)

    for module in (complexes, covers):
        monkeypatch.setattr(module, "tree_potential", walked)
    cov = build_abelian_p_cover(K, basis[:], p)
    assert calls == [K]
    calls.clear()
    build_wedge_family(cov, basis[:2])
    assert calls == [K, cov.total]


def test_family_supports_stay_in_preimage():
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    cov = build_abelian_p_cover(K, basis[:], p)
    fam = build_wedge_family(cov, basis[:2])
    base_support = set(np.flatnonzero(np.any(fam.base_family, axis=0)).tolist())
    allowed = {
        e
        for e in range(cov.total.num_edges)
        if e // cov.degree in base_support
    }
    for row in fam.cocycle_basis:
        assert set(np.flatnonzero(row).tolist()) <= allowed


def test_certificate_is_identity():
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    cov = build_abelian_p_cover(K, basis[:], p)
    for u in (1, 2):
        fam = build_wedge_family(cov, basis[:u])
        cert = commutator_certificate(fam)
        assert np.array_equal(cert % p, np.eye(len(fam.span_basis), dtype=np.int64))


def test_certificate_identity_on_free_cover():
    pres = GroupPresentation(generators=("a", "b", "c"), relators=())
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, 2)
    cov = build_abelian_p_cover(K, basis[:], 2)
    fam = build_wedge_family(cov, basis[:1])
    cert = commutator_certificate(fam)
    assert np.array_equal(cert % 2, np.eye(len(fam.span_basis), dtype=np.int64))


def test_dual_loops_evaluate_to_identity():
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    loops = dual_loops(K, basis[:], p)
    for i, loop in enumerate(loops):
        assert K.path_end(loop) == loop.start == K.basepoint
        for j, c in enumerate(basis):
            assert c.evaluate(loop) % p == (1 if i == j else 0)


def test_wedge_family_needs_class_cover():
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    cyc = build_cyclic_cover(K, [1, 0, 0, 0], 3)
    with pytest.raises(UnsupportedCoverError):
        build_wedge_family(cyc, basis[:1])


def test_wedge_family_rejects_dependent_family():
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    cov = build_abelian_p_cover(K, basis[:], p)
    with pytest.raises(ValueError):
        build_wedge_family(cov, basis[[0, 0]])


@settings(max_examples=40, deadline=None, database=None)
@given(
    st.sampled_from((2, 3, 5)),
    st.sampled_from((GENUS2, TORUS, ROSE3)),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_span_basis_rows_are_the_pairwise_wedges(p, text, twice, seed):
    # row i*|C| + j of the matrix is wedge_cochain(U_i, C_j), on random abelian
    # covers of a presentation complex or of one of its covers (many vertices)
    rng = np.random.default_rng(seed)
    K = build_presentation_complex(parse_presentation(text)[0])
    if twice:
        K = build_abelian_p_cover(K, h1_cocycle_basis(K, p)[:2], p).total
    basis = h1_cocycle_basis(K, p)
    n = len(basis)
    picks = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False)
    cov = build_abelian_p_cover(K, basis[picks], p)
    u = int(rng.integers(1, min(n, 3) + 1))
    coeffs = rng.integers(0, p, size=(u, n))
    while mod_rank(coeffs.tolist(), p) < u:
        coeffs = rng.integers(0, p, size=(u, n))
    family = [combine_cochains(basis, row, p) for row in coeffs]
    fam = build_wedge_family(cov, rows(family))
    width = len(fam.complement)
    assert fam.span_basis.shape == (u * width, cov.total.num_edges)
    for i, c1 in enumerate(family):
        for j, c2 in enumerate(fam.complement):
            w = wedge_cochain(cov, c1, Cochain(K, p, c2))
            assert np.array_equal(fam.span_basis[i * width + j], w.values)
    assert fam.cocycle_basis.shape == (fam.size, cov.total.num_edges)
    for m in (fam.base_family, fam.complement, fam.span_basis, fam.cocycle_basis):
        assert not m.flags.writeable


def test_wedge_family_checks_every_face_of_the_cover(monkeypatch):
    # a kernel that keeps every wedge brings the wedges themselves back, and
    # the check of the whole stack on every face must reject them
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    cov = build_abelian_p_cover(K, basis[:], p)
    assert build_wedge_family(cov, basis[:1]).size == 2  # of 3 wedges
    monkeypatch.setattr(fplinalg, "kernel_basis", lambda m, p: np.eye(m.shape[1], dtype=np.int64))
    with pytest.raises(InvariantError, match="missed a face"):
        build_wedge_family(cov, basis[:1])


def test_wedge_family_rejects_a_family_of_another_modulus():
    # a family matrix carries no modulus: entries that are not residues mod
    # the cover's p (here twice a mod-3 class) are rejected
    pres, _ = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    b2, b3 = h1_cocycle_basis(K, 2), h1_cocycle_basis(K, 3)
    cov = build_abelian_p_cover(K, b2[:2], 2)
    for family in ([2 * b3[0].values % 3, b3[1].values], [b2[2].values, 2 * b3[3].values % 3]):
        with pytest.raises(ValueError, match="not residues mod the cover's p = 2"):
            build_wedge_family(cov, family)


def test_wedge_family_rejects_a_row_that_is_not_a_cocycle():
    # on <a, b | aab> mod 2 the face row is b, so (0, 1) is not a cocycle
    K = build_presentation_complex(GroupPresentation(generators=("a", "b"), relators=("aab",)))
    cov = build_abelian_p_cover(K, h1_cocycle_basis(K, 2)[:1], 2)
    with pytest.raises(CocycleConditionError, match="not a cocycle"):
        build_wedge_family(cov, [[1, 0], [0, 1]])
