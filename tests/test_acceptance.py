"""End-to-end acceptance checks, one test per criterion.

Every test asserts the mathematical contract exactly (no float tolerances;
all quantities are integers or Fractions) plus a wall-clock budget, so
`pytest -v` shows a single pass/fail line per criterion.
"""

import itertools
import json
import time
from fractions import Fraction

import numpy as np

from pdescent import fplinalg
from pdescent.cli import main
from pdescent.complexes import (
    Cochain,
    GroupPresentation,
    build_presentation_complex,
    class_coordinates,
    face_sums,
    h1_cocycle_basis,
    h1_dimension,
    parse_presentation,
)
from pdescent.covers import build_abelian_p_cover, build_cyclic_cover
from pdescent.expansion import expansion_bound_report
from pdescent.fplinalg import FpSubspace
from pdescent.plotkin import (
    _cut,
    chain_factor,
    reduce_to_dimension,
)
from pdescent.tower import SeriesSpec, cyclic_growth_report, run_descent
from pdescent.wedge import build_wedge_family, commutator_path, wedge_cochain

from oracles import (
    cochain_support,
    combine_cochains,
    hyperplane_functionals,
    presentation_loop,
    random_subspace_rows,
    subspace_support,
    support_size_by_enumeration,
)

TORUS = "p = 2\ngens = a b\nrel = abAB\n"
GENUS2 = "p = 2\ngens = a b c d\nrel = abABcdCD\n"

# Every normal p-power-index cover the suite constructs, recorded as
# (d_p of base, d_p of total, degree).  Criterion 9 closes the loop by
# checking d_p(total) <= (d_p(base) - 1) * degree + 1 on each entry.
COVER_LOG: list[tuple[int, int, int]] = []


def logged_cover(K, classes, p):
    cov = build_abelian_p_cover(K, classes, p)
    COVER_LOG.append((h1_dimension(K, p), h1_dimension(cov.total, p), cov.degree))
    return cov


def random_word(rng, gens, length):
    letters = list(gens) + [g.upper() for g in gens]
    return "".join(letters[int(i)] for i in rng.integers(0, len(letters), size=length))


def test_criterion_01_free_cover_homology_formula():
    t0 = time.perf_counter()
    for n in (2, 3):
        for p in (2, 3):
            pres = GroupPresentation(generators=tuple("abc"[:n]), relators=())
            K = build_presentation_complex(pres)
            cov = logged_cover(K, h1_cocycle_basis(K, p)[:], p)
            assert cov.degree == p**n
            assert h1_dimension(cov.total, p) == p**n * (n - 1) + 1
    # the rank-2, p=2 instance in numbers: degree 4, homology rank 5
    pres = GroupPresentation(generators=("a", "b"), relators=())
    K = build_presentation_complex(pres)
    cov = build_abelian_p_cover(K, h1_cocycle_basis(K, 2)[:], 2)
    assert (cov.degree, h1_dimension(cov.total, 2)) == (4, 5)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_support_size_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    primes = (2, 3, 5)
    for i in range(500):
        p = primes[i % 3]
        dim = int(rng.integers(1, 5))
        ambient = int(rng.integers(dim, 11))
        V = FpSubspace.from_rows(random_subspace_rows(rng, p, dim, ambient), p, ambient)
        assert support_size_by_enumeration(V) == len(subspace_support(V))
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_hyperplane_support_averaging():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    primes = (2, 3, 5)
    checked = 0
    for i in range(200):
        p = primes[i % 3]
        v = int(rng.integers(2, 9))
        if p**v > 2**12:
            continue
        ambient = int(rng.integers(v, 13))
        V = FpSubspace.from_rows(random_subspace_rows(rng, p, v, ambient), p, ambient)
        total = len(subspace_support(V))
        eye = np.eye(v, dtype=np.int64)
        supports = [
            len(subspace_support(FpSubspace.from_rows(_cut(eye, f, p) @ V.basis, p)))
            for f in hyperplane_functionals(v, p)
        ]
        # summed over all hyperplanes, support sizes hit (p^v - p)/(p-1) * |supp(V)|
        assert sum(supports) * (p - 1) == (p**v - p) * total
        best = reduce_to_dimension(V, V.dim - 1)
        assert best.certified and best.mode == "exact"
        assert best.support_size == min(supports)
        assert best.support_size * (p**v - 1) <= (p**v - p) * total
        checked += 1
    assert checked >= 100
    assert time.perf_counter() - t0 < 30.0


def test_criterion_04_dimension_reduction_support_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    primes = (2, 3, 5)
    for i in range(200):
        p = primes[i % 3]
        v = int(rng.integers(2, 7))
        w = int(rng.integers(1, v))
        ambient = int(rng.integers(v, 13))
        V = FpSubspace.from_rows(random_subspace_rows(rng, p, v, ambient), p, ambient)
        res = reduce_to_dimension(V, w)
        assert res.mode == "exact" and res.certified
        assert res.subspace.dim == w
        stacked = np.vstack([V.basis, res.subspace.basis])
        assert fplinalg.rank(stacked, p) == v  # output sits inside V
        assert res.support_size <= chain_factor(p, v, w) * len(subspace_support(V))
    assert time.perf_counter() - t0 < 30.0


def test_criterion_05_commutator_wedge_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    cases = (("ab", 2), ("abc", 2), ("ab", 3))  # cover degrees 4, 8, 9
    for gens, p in cases:
        pres = GroupPresentation(generators=tuple(gens), relators=())
        K = build_presentation_complex(pres)
        cov = logged_cover(K, h1_cocycle_basis(K, p)[:], p)
        assert cov.degree == p ** len(gens)
        c1, c2 = (Cochain(K, p, c) for c in cov.shifts.T[:2])
        w = wedge_cochain(cov, c1, c2)
        for _ in range(100):
            g = presentation_loop(
                K, pres, random_word(rng, pres.generators, int(rng.integers(1, 7)))
            )
            h = presentation_loop(
                K, pres, random_word(rng, pres.generators, int(rng.integers(1, 7)))
            )
            comm = commutator_path(K, g, h)
            expect = (c1.evaluate(h) * c2.evaluate(g) - c1.evaluate(g) * c2.evaluate(h)) % p
            for start in range(cov.degree):
                assert w.evaluate(cov.lift_path(comm, start)) % p == expect
    assert time.perf_counter() - t0 < 10.0


def test_criterion_06_lifted_cocycle_family_contract():
    t0 = time.perf_counter()
    pres, p = parse_presentation(GENUS2)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    n, r = len(basis), K.num_faces
    assert (p, n, r) == (2, 4, 1)
    cov = logged_cover(K, basis[:], p)
    for u in (1, 2):
        fam = build_wedge_family(cov, basis[:u])
        assert fam.size >= (n - u) * u - r
        assert not np.any(face_sums(cov.total, fam.cocycle_basis) % p)
        coords = class_coordinates(cov.total, fam.cocycle_basis, p)
        assert fplinalg.rank(coords, p) == fam.size  # independent classes upstairs
        supp_u = set(np.flatnonzero(basis[:u].any(axis=0)).tolist())
        preimage = {e for e in range(cov.total.num_edges) if e // cov.degree in supp_u}
        for row in fam.cocycle_basis:
            assert set(np.flatnonzero(row).tolist()) <= preimage
    assert time.perf_counter() - t0 < 30.0


def test_criterion_07_descent_decay_certification():
    t0 = time.perf_counter()
    pres, p = parse_presentation(GENUS2)
    spec = SeriesSpec(kind="rank", p=p, depth=2, cell_budget=10**6, rank=2)
    report = run_descent(pres, spec, u=2)
    assert report.verdict == "decay-certified"
    rels = [rec.relsize_upper for rec in report.records]
    assert len(rels) >= 3
    assert all(b < a for a, b in zip(rels, rels[1:]))
    assert all(b / a <= Fraction(6, 7) for a, b in zip(rels, rels[1:]))
    for a, b in zip(report.records, report.records[1:]):
        COVER_LOG.append((a.dp, b.dp, b.index // a.index))
    assert time.perf_counter() - t0 < 300.0


def test_criterion_08_cover_expansion_bound():
    t0 = time.perf_counter()
    wedge2 = GroupPresentation(generators=("a", "b"), relators=())
    wedge3 = GroupPresentation(generators=("a", "b", "c"), relators=())
    torus, _ = parse_presentation(TORUS)
    genus2, _ = parse_presentation(GENUS2)
    cases = [
        (wedge2, 2, 1),  # degree 2, the equality case
        (wedge2, 2, 2),  # degree 4
        (wedge2, 3, 2),  # degree 9
        (wedge3, 2, 3),  # degree 8
        (torus, 2, 2),  # degree 4
        (genus2, 2, 4),  # degree 16, at the vertex ceiling
    ]
    for pres, p, k in cases:
        K = build_presentation_complex(pres)
        basis = h1_cocycle_basis(K, p)
        cov = logged_cover(K, basis[:k], p)
        assert cov.total.num_vertices <= 16
        fiber = cov.total.num_vertices // p
        # every nontrivial class the cover trivializes
        for coeffs in itertools.product(range(p), repeat=k):
            if not any(coeffs):
                continue
            alpha = combine_cochains([basis[i] for i in range(k)], coeffs, p)
            rep = expansion_bound_report(cov, alpha)
            assert rep.holds and rep.cheeger <= rep.bound
            assert all(c == fiber for c in rep.fiber_counts)
    # the rank-2 degree-2 cover meets the bound with equality
    K = build_presentation_complex(wedge2)
    basis = h1_cocycle_basis(K, 2)
    alpha = basis[0]
    cov = build_abelian_p_cover(K, basis[:1], 2)
    rep = expansion_bound_report(cov, alpha)
    assert rep.cheeger == rep.bound == 2
    assert time.perf_counter() - t0 < 30.0


def test_criterion_09_cyclic_growth_and_index_rank_bound():
    t0 = time.perf_counter()
    f2 = GroupPresentation(generators=("a", "b"), relators=())
    growth = cyclic_growth_report(f2, (1, 0), 2, 8)
    assert [dp for _, dp, _ in growth.entries] == [i + 1 for i in range(1, 9)]
    ratios = [r for _, _, r in growth.entries]
    assert all(r > 1 for r in ratios)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))  # falling toward 1
    assert ratios[-1] == Fraction(9, 8)
    assert growth.positive_limit_signal

    torus, _ = parse_presentation(TORUS)
    tg = cyclic_growth_report(torus, (1, 0), 2, 8)
    assert all(dp == 2 for _, dp, _ in tg.entries)
    assert tg.entries[-1][2] == Fraction(1, 4)  # ratio heading to 0
    assert not tg.positive_limit_signal

    # 2-power cyclic covers are normal covers too; log them, then check the
    # subgroup rank bound on everything the suite has built
    for pres, weights in ((f2, (1, 0)), (torus, (1, 0))):
        K = build_presentation_complex(pres)
        base_dp = h1_dimension(K, 2)
        for order in (2, 4, 8):
            cov = build_cyclic_cover(K, np.array(weights), order)
            COVER_LOG.append((base_dp, h1_dimension(cov.total, 2), order))
    assert COVER_LOG
    for base_dp, total_dp, degree in COVER_LOG:
        assert total_dp <= (base_dp - 1) * degree + 1
    assert time.perf_counter() - t0 < 5.0


def test_criterion_10_cli_byte_determinism(tmp_path):
    genus2 = tmp_path / "genus2.txt"
    genus2.write_text(GENUS2)
    f2 = tmp_path / "f2.txt"
    f2.write_text("p = 2\ngens = a b\n")
    torus = tmp_path / "torus.txt"
    torus.write_text(TORUS)
    mat = tmp_path / "m.txt"
    mat.write_text("p = 2\nrow = 1 1 0 0 1\nrow = 0 1 1 0 1\nrow = 0 0 1 1 1\n")
    recs = tmp_path / "recs.txt"
    recs.write_text("record = 1 2\nrecord = 4 5\n")
    invocations = [
        ["descend", str(genus2), "--series", "rank:2", "--depth", "2", "--seed", "11"],
        ["descend", str(genus2), "--series", "rank:2", "--format", "table", "--seed", "11"],
        ["cyclic", str(f2), "--weights", "1,0", "--depth", "8"],
        ["criteria", str(recs)],
        ["reduce", str(mat), "--u", "1", "--seed", "5"],
        ["cheeger", str(torus), "--mode", "heuristic", "--seed", "9"],
        ["relsize", str(torus), "--class-index", "0"],
        ["cover", str(genus2), "--series", "rank:2"],
        ["echo", str(genus2)],
    ]
    for i, argv in enumerate(invocations):
        first = tmp_path / f"a{i}.out"
        second = tmp_path / f"b{i}.out"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), argv


def test_depth6_descent_scale(tmp_path):
    # depth 6 ends on a V=4096, E=16384, F=4096 cover (24,576 cells); its
    # d_p comes from sparse face rows, never a dense E x F matrix.  A
    # genus-2 cover of index N has d_p = 2 + 2N.
    t0 = time.perf_counter()
    genus2 = tmp_path / "genus2.txt"
    genus2.write_text(GENUS2)
    out = tmp_path / "report.json"
    argv = ["descend", str(genus2), "--series", "rank:2", "--u", "2", "--depth", "6"]
    assert main([*argv, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "decay-certified"
    assert [lvl["index"] for lvl in doc["levels"]] == [4**k for k in range(7)]
    assert all(lvl["d_p"] == 2 + 2 * lvl["index"] for lvl in doc["levels"])
    assert time.perf_counter() - t0 < 30.0


def test_depth8_descent_scale(tmp_path):
    # depth 8 ends on a V=65536, E=262144 cover; the H^1 basis of each
    # level comes from one sparse elimination of the tree-contracted face
    # rows, and only the cocycles the rank series reads are ever built
    t0 = time.perf_counter()
    genus2 = tmp_path / "genus2.txt"
    genus2.write_text(GENUS2)
    out = tmp_path / "report.json"
    argv = ["descend", str(genus2), "--series", "rank:2", "--u", "2", "--depth", "8"]
    assert main([*argv, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "decay-certified"
    assert [lvl["index"] for lvl in doc["levels"]] == [4**k for k in range(9)]
    assert all(lvl["d_p"] == 2 + 2 * lvl["index"] for lvl in doc["levels"])
    assert time.perf_counter() - t0 < 30.0


def test_depth8_cover_tower(tmp_path):
    # a dense E x F matrix of the V=16384 level would take 8 GiB
    t0 = time.perf_counter()
    genus2 = tmp_path / "genus2.txt"
    genus2.write_text(GENUS2)
    out = tmp_path / "report.json"
    argv = ["cover", str(genus2), "--series", "rank:2", "--depth", "8"]
    assert main([*argv, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "completed"
    last = doc["levels"][-1]
    assert (last["level"], last["vertices"], last["d_p"]) == (9, 65536, 131074)
    assert time.perf_counter() - t0 < 30.0
