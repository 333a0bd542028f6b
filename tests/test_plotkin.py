from fractions import Fraction

import numpy as np
import pytest

from pdescent.errors import DimensionError
from pdescent.fplinalg import FpSubspace, subspace_support
from pdescent.plotkin import (
    _column_classes,
    best_hyperplane,
    chain_factor,
    hyperplane_functionals,
    hyperplane_subspace,
    reduce_to_dimension,
    uniform_factor,
)

from oracles import (
    all_hyperplane_supports,
    brute_min_hyperplane_support,
    column_classes_by_loop,
    mod_rank,
    random_subspace_rows,
)


def test_factor_arithmetic():
    assert chain_factor(2, 3, 1) == Fraction(4, 7)
    assert chain_factor(2, 3, 2) == Fraction(6, 7)
    assert chain_factor(3, 2, 1) == Fraction(6, 8)
    assert uniform_factor(2, 1) == Fraction(2, 3)
    assert uniform_factor(2, 2) == Fraction(6, 7)
    assert uniform_factor(3, 1) == Fraction(6, 8)
    # the closed form telescopes the per-step averaging factors
    assert chain_factor(2, 4, 2) == Fraction(2**4 - 2**2, 2**4 - 1)
    step_product = Fraction(2**4 - 2, 2**4 - 1) * Fraction(2**3 - 2, 2**3 - 1)
    assert chain_factor(2, 4, 2) == step_product
    # the uniform factor is the worst (last) step and bounds the chain
    for p in (2, 3, 5):
        for v in range(2, 6):
            for w in range(1, v):
                assert uniform_factor(p, w) ** (v - w) <= chain_factor(p, v, w)
                assert chain_factor(p, v, w) <= uniform_factor(p, w)


def test_hyperplane_functionals_enumeration():
    for p, v in ((2, 1), (2, 3), (3, 2), (5, 2)):
        fs = list(hyperplane_functionals(v, p))
        assert len(fs) == (p**v - 1) // (p - 1)
        seen = {tuple(int(x) for x in f) for f in fs}
        assert len(seen) == len(fs)
        for f in fs:
            nonzero = [int(x) for x in f if x % p != 0]
            assert nonzero and nonzero[0] == 1  # lex-normalized
        # lexicographic order
        as_tuples = [tuple(int(x) for x in f) for f in fs]
        assert as_tuples == sorted(as_tuples)


def test_hyperplane_subspace_is_codim_one():
    rng = np.random.default_rng(71)
    for _ in range(25):
        p = int(rng.choice([2, 3]))
        dim = int(rng.integers(2, 5))
        ambient = int(rng.integers(dim, 8))
        rows = random_subspace_rows(rng, p, dim, ambient)
        V = FpSubspace.from_rows(np.array(rows), p, ambient)
        for f in list(hyperplane_functionals(V.dim, p))[:5]:
            W = hyperplane_subspace(V, f)
            assert W.dim == dim - 1
            assert all(V.contains(row) for row in W.basis)


def test_hyperplane_subspace_checks_the_functional():
    V = FpSubspace.from_rows(np.eye(3, dtype=np.int64), 3, 3)
    for f in ([0, 0, 0], [1, 2], [1, 2, 0, 1]):
        with pytest.raises(DimensionError):
            hyperplane_subspace(V, f)
    # a scaled functional cuts out the same hyperplane
    W = hyperplane_subspace(V, [2, 1, 0])
    assert W.dim == 2
    assert all((2 * row[0] + row[1]) % 3 == 0 for row in W.basis)


def test_averaging_identity_exact():
    # sum over hyperplanes of |supp(W)| = ((p^v - p)/(p - 1)) |supp(V)|
    rng = np.random.default_rng(73)
    for _ in range(40):
        p = int(rng.choice([2, 3]))
        dim = int(rng.integers(2, 4))
        ambient = int(rng.integers(dim, 7))
        rows = random_subspace_rows(rng, p, dim, ambient)
        V = FpSubspace.from_rows(np.array(rows), p, ambient)
        sizes = [
            len(subspace_support(hyperplane_subspace(V, f)))
            for f in hyperplane_functionals(V.dim, p)
        ]
        total = sum(sizes)
        expect = Fraction(p**dim - p, p - 1) * len(subspace_support(V))
        assert total == expect
        # cross-check each size against the naive oracle
        assert sizes == all_hyperplane_supports(V.basis.tolist(), p)


def test_best_hyperplane_is_true_minimum():
    rng = np.random.default_rng(79)
    for _ in range(30):
        p = int(rng.choice([2, 3]))
        dim = int(rng.integers(2, 4))
        ambient = int(rng.integers(dim, 7))
        rows = random_subspace_rows(rng, p, dim, ambient)
        V = FpSubspace.from_rows(np.array(rows), p, ambient)
        result = best_hyperplane(V)
        assert result.mode == "exact"
        assert result.certified
        assert result.support_size == brute_min_hyperplane_support(V.basis.tolist(), p)
        # averaging bound: min <= (p^v - p)/(p^v - 1) |supp(V)|
        bound = Fraction(p**dim - p, p**dim - 1) * len(subspace_support(V))
        assert result.support_size <= bound
        assert result.subspace.dim == dim - 1


def test_best_hyperplane_sampled_mode():
    rng = np.random.default_rng(83)
    rows = random_subspace_rows(rng, 2, 4, 9)
    V = FpSubspace.from_rows(np.array(rows), 2, 9)
    result = best_hyperplane(V, cap=2, samples=64, seed=5)
    assert result.mode == "sampled"
    assert result.subspace.dim == 3
    # sampled search may miss the bound but must report it honestly
    bound = Fraction(2**4 - 2, 2**4 - 1) * len(subspace_support(V))
    assert result.certified == (result.support_size <= bound)
    # determinism under a fixed seed
    again = best_hyperplane(V, cap=2, samples=64, seed=5)
    assert np.array_equal(again.subspace.basis, result.subspace.basis)


def test_reduce_to_dimension_contract():
    rng = np.random.default_rng(89)
    for _ in range(30):
        p = int(rng.choice([2, 3]))
        v = int(rng.integers(2, 5))
        ambient = int(rng.integers(v, 8))
        w = int(rng.integers(1, v))
        rows = random_subspace_rows(rng, p, v, ambient)
        V = FpSubspace.from_rows(np.array(rows), p, ambient)
        result = reduce_to_dimension(V, w, seed=3)
        assert result.subspace.dim == w
        assert result.mode == "exact"
        assert result.certified
        # a genuine subspace: stacking changes no rank
        stacked = np.vstack([V.basis, result.subspace.basis]).tolist()
        assert mod_rank(stacked, p) == v
        assert result.support_size <= chain_factor(p, v, w) * len(subspace_support(V))
        assert result.chain_bound <= result.uniform_bound


def test_reduce_rejects_bad_target():
    V = FpSubspace.from_rows(np.eye(3, dtype=np.int64), 2, 3)
    with pytest.raises(DimensionError):
        reduce_to_dimension(V, 0)
    with pytest.raises(DimensionError):
        reduce_to_dimension(V, 3)


def test_reduce_seeded_sampling_deterministic():
    rng = np.random.default_rng(97)
    rows = random_subspace_rows(rng, 2, 5, 10)
    V = FpSubspace.from_rows(np.array(rows), 2, 10)
    a = reduce_to_dimension(V, 2, cap=4, samples=32, seed=11)
    b = reduce_to_dimension(V, 2, cap=4, samples=32, seed=11)
    assert a.mode == "sampled"
    assert np.array_equal(a.subspace.basis, b.subspace.basis)
    assert a.support_size == b.support_size


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_column_classes_match_the_column_loop(p):
    rng = np.random.default_rng(p)
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        ambient = int(rng.integers(dim, 40))
        rows = rng.integers(0, p, size=(dim, ambient))
        # zero columns, repeated columns and multiples of one column
        rows[:, rng.integers(0, ambient, size=ambient // 4)] = 0
        src, dst = rng.integers(0, ambient, size=(2, ambient // 3))
        rows[:, dst] = rows[:, src] * rng.integers(1, p, size=dst.size) % p
        V = FpSubspace.from_rows(rows, p)
        assert _column_classes(V) == column_classes_by_loop(V.basis, p)
    assert _column_classes(FpSubspace.from_rows(np.zeros((2, 6), dtype=np.int64), p)) == {}
    # the last dimension whose integer keys fit int64, and the first that
    # falls back to grouping the scaled columns as rows
    top = next(d for d in range(1, 70) if p**d >= 2**63)
    for dim in (top - 1, top):
        rows = rng.integers(0, p, size=(dim, dim + 30))
        rows[:, dim + 20 :] = rows[:, 5:15] * rng.integers(1, p, size=10) % p
        rows[:, dim + 10 : dim + 13] = 0
        V = FpSubspace.from_rows(rows, p)
        assert V.dim == dim
        classes = _column_classes(V)
        assert classes == column_classes_by_loop(V.basis, p)
        assert list(classes) == sorted(classes)
