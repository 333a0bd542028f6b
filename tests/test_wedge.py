import numpy as np
import pytest

from pdescent.complexes import (
    GroupPresentation,
    build_presentation_complex,
    class_coordinates,
    h1_cocycle_basis,
    parse_presentation,
    presentation_loop,
)
from pdescent.covers import build_abelian_p_cover, build_cyclic_cover
from pdescent.errors import UnsupportedCoverError
from pdescent.wedge import (
    build_wedge_family,
    commutator_certificate,
    commutator_path,
    dual_loops,
    wedge_cochain,
)

from oracles import mod_rank

GENUS2 = "p = 2\ngens = a b c d\nrel = abABcdCD\n"


def wedge_complex(n):
    return build_presentation_complex(
        GroupPresentation(generators=tuple("abcde"[:n]), relators=())
    )


def random_word(rng, gens, length):
    letters = list(gens) + [g.upper() for g in gens]
    return "".join(letters[int(i)] for i in rng.integers(0, len(letters), size=length))


def check_commutator_identity(K, pres, p, cov, pairs, rng):
    c1, c2 = cov.classes[0], cov.classes[1]
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
    cov = build_abelian_p_cover(K, h1_cocycle_basis(K, 2), 2)
    check_commutator_identity(K, pres, 2, cov, 40, np.random.default_rng(59))


def test_commutator_identity_wedge3_p2():
    pres = GroupPresentation(generators=("a", "b", "c"), relators=())
    K = build_presentation_complex(pres)
    cov = build_abelian_p_cover(K, h1_cocycle_basis(K, 2), 2)  # degree 8
    check_commutator_identity(K, pres, 2, cov, 30, np.random.default_rng(61))


def test_commutator_identity_wedge2_p3():
    pres = GroupPresentation(generators=("a", "b"), relators=())
    K = build_presentation_complex(pres)
    cov = build_abelian_p_cover(K, h1_cocycle_basis(K, 3), 3)  # degree 9
    check_commutator_identity(K, pres, 3, cov, 30, np.random.default_rng(67))


def test_wedge_support_containment():
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    cov = build_abelian_p_cover(K, basis, p)
    for c1 in basis[:2]:
        for c2 in basis[:2]:
            w = wedge_cochain(cov, c1, c2)
            lifted = {
                e
                for e in range(cov.total.num_edges)
                if e // cov.degree in c1.support()
            }
            assert w.support() <= lifted


def test_family_size_lower_bound_genus2():
    # (n - u) u - r with n = 4 covering classes, r = 1 deck face orbit
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    cov = build_abelian_p_cover(K, basis, p)
    for u in (1, 2):
        fam = build_wedge_family(cov, basis[:u])
        n = len(basis)
        r = cov.base.num_faces
        assert len(fam.span_basis) == u * len(fam.complement)
        assert fam.size >= (n - u) * u - r
        for c in fam.cocycle_basis:
            assert c.is_cocycle()
        # classes independent in H^1 of the total complex
        coords = [class_coordinates(c).tolist() for c in fam.cocycle_basis]
        assert mod_rank(coords, p) == fam.size


def test_family_supports_stay_in_preimage():
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    cov = build_abelian_p_cover(K, basis, p)
    fam = build_wedge_family(cov, basis[:2])
    base_support = set()
    for c in fam.base_family:
        base_support |= c.support()
    allowed = {
        e
        for e in range(cov.total.num_edges)
        if e // cov.degree in base_support
    }
    for c in fam.cocycle_basis:
        assert c.support() <= allowed


def test_certificate_is_identity():
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    cov = build_abelian_p_cover(K, basis, p)
    for u in (1, 2):
        fam = build_wedge_family(cov, basis[:u])
        cert = commutator_certificate(fam)
        assert np.array_equal(cert % p, np.eye(len(fam.span_basis), dtype=np.int64))


def test_certificate_identity_on_free_cover():
    pres = GroupPresentation(generators=("a", "b", "c"), relators=())
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, 2)
    cov = build_abelian_p_cover(K, basis, 2)
    fam = build_wedge_family(cov, basis[:1])
    cert = commutator_certificate(fam)
    assert np.array_equal(cert % 2, np.eye(len(fam.span_basis), dtype=np.int64))


def test_dual_loops_evaluate_to_identity():
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    loops = dual_loops(K, basis, p)
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
    cov = build_abelian_p_cover(K, basis, p)
    with pytest.raises(ValueError):
        build_wedge_family(cov, [basis[0], basis[0]])
