from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdescent.errors import DimensionError
from pdescent.fplinalg import FpSubspace
from pdescent.plotkin import (
    _column_classes,
    _cut,
    _distinct_columns,
    chain_factor,
    reduce_to_dimension,
    uniform_factor,
)

from oracles import (
    all_hyperplane_supports,
    best_hyperplane_by_functional_scan,
    brute_min_hyperplane_support,
    column_classes_by_loop,
    contains_subspace,
    hyperplane_by_rows,
    hyperplane_functionals,
    mod_rank,
    random_subspace_rows,
    reduce_by_hyperplane_steps,
    subspace_support,
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


def _support(rows):
    return int(np.count_nonzero(np.any(np.array(rows), axis=0)))


def _hyperplane(V, f):
    """The library's cut of V by the functional f, as a basis matrix."""
    return _cut(np.eye(V.dim, dtype=np.int64), f, V.p) @ V.basis % V.p


def test_hyperplane_subspace_is_codim_one():
    # the cut the reduction's column-class count stands for: ker(f) has
    # codimension one in V and keeps exactly the columns not proportional to f
    rng = np.random.default_rng(71)
    for p in (2, 3, 5, 65521):
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            ambient = int(rng.integers(dim, 8))
            rows = random_subspace_rows(rng, p, dim, ambient)
            V = FpSubspace.from_rows(np.array(rows), p, ambient)
            classes = column_classes_by_loop(V.basis, p)
            for _ in range(3):
                f = rng.integers(0, p, size=dim)
                lead = int(rng.integers(0, dim))
                f[:lead] = 0
                # a leading entry other than 1 wherever p allows one
                f[lead] = rng.integers(2, p) if p > 2 else 1
                W = _hyperplane(V, f)
                assert W.tolist() == hyperplane_by_rows(V.basis, f, p)
                assert len(W) == dim - 1 == mod_rank(W.tolist(), p)
                assert mod_rank(V.basis.tolist() + W.tolist(), p) == dim
                key = tuple(int(x) * pow(int(f[lead]), -1, p) % p for x in f)
                assert _support(W) == sum(classes.values()) - classes.get(key, 0)


def test_averaging_identity_exact():
    # sum over hyperplanes of |supp(W)| = ((p^v - p)/(p - 1)) |supp(V)|
    rng = np.random.default_rng(73)
    for _ in range(40):
        p = int(rng.choice([2, 3]))
        dim = int(rng.integers(2, 4))
        ambient = int(rng.integers(dim, 7))
        rows = random_subspace_rows(rng, p, dim, ambient)
        V = FpSubspace.from_rows(np.array(rows), p, ambient)
        sizes = [_support(_hyperplane(V, f)) for f in hyperplane_functionals(V.dim, p)]
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
        result = reduce_to_dimension(V, V.dim - 1)
        assert result.mode == "exact"
        assert result.certified
        assert result.support_size == brute_min_hyperplane_support(V.basis.tolist(), p)
        # averaging bound: min <= (p^v - p)/(p^v - 1) |supp(V)|
        bound = Fraction(p**dim - p, p**dim - 1) * len(subspace_support(V))
        assert result.support_size <= bound
        assert result.subspace.dim == dim - 1


def _lead_zero_worst_case(p, v, copies=40):
    """The identity plus `copies` equal columns leading at coordinate 0.

    One functional in (p^v - 1)/(p - 1) kills the copies, so the exact
    minimum hyperplane support is v, and a random hyperplane almost surely
    keeps all v + copies coordinates.
    """
    col = np.ones((v, 1), dtype=np.int64)
    col[0] = p - 1
    rows = np.hstack([np.eye(v, dtype=np.int64), np.repeat(col, copies, axis=1)])
    return FpSubspace.from_rows(rows, p)


@pytest.mark.parametrize("p, v", [(2, 22), (3, 14)])
def test_best_hyperplane_over_cap_is_exact(p, v):
    # over 2**20 hyperplanes: still the exact minimum, read off the classes
    V = _lead_zero_worst_case(p, v)
    assert (p**v - 1) // (p - 1) > 2**20
    result = reduce_to_dimension(V, V.dim - 1)
    assert result.mode == "exact" and result.certified
    assert result.support_size == v == len(subspace_support(result.subspace))
    assert result.subspace.dim == v - 1
    assert not result.subspace.basis[:, v:].any()
    assert contains_subspace(V, result.subspace)


def test_reduce_over_cap_meets_the_chain_bound():
    V = _lead_zero_worst_case(2, 22)
    result = reduce_to_dimension(V, 1)
    assert result.mode == "exact" and result.certified
    assert result.subspace.dim == 1
    assert result.support_size == len(subspace_support(result.subspace))
    assert result.support_size <= result.chain_bound == chain_factor(2, 22, 1) * (22 + 40)
    assert contains_subspace(V, result.subspace)


@st.composite
def classed_subspaces(draw):
    """Subspaces whose columns repeat, scale one another, or vanish."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    v = draw(st.integers(2, 6))
    ambient = draw(st.integers(v, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, p, size=(v, ambient))
    rows[:, rng.integers(0, ambient, size=draw(st.integers(0, ambient // 2)))] = 0
    src, dst = rng.integers(0, ambient, size=(2, draw(st.integers(0, ambient))))
    rows[:, dst] = rows[:, src] * rng.integers(1, p, size=dst.size) % p
    V = FpSubspace.from_rows(rows, p)
    assume(V.dim >= 2)
    return V


@settings(max_examples=200, deadline=None, database=None)
@given(classed_subspaces())
def test_best_hyperplane_matches_the_functional_scan(V):
    size, rows = best_hyperplane_by_functional_scan(V.basis, V.p)
    result = reduce_to_dimension(V, V.dim - 1)
    assert result.support_size == size
    assert result.subspace.basis.tolist() == rows


def test_reduce_repeats_identically():
    rng = np.random.default_rng(97)
    for V in (
        FpSubspace.from_rows(np.array(random_subspace_rows(rng, 2, 5, 10)), 2, 10),
        FpSubspace.from_rows(np.array(random_subspace_rows(rng, 3, 4, 9)), 3, 9),
        _lead_zero_worst_case(2, 22),
    ):
        a, b = reduce_to_dimension(V, V.dim - 1), reduce_to_dimension(V, V.dim - 1)
        assert np.array_equal(a.subspace.basis, b.subspace.basis)
        assert a.support_size == b.support_size
        a, b = reduce_to_dimension(V, 2), reduce_to_dimension(V, 2)
        assert np.array_equal(a.subspace.basis, b.subspace.basis)
        assert a.support_size == b.support_size


def test_reduce_to_dimension_contract():
    rng = np.random.default_rng(89)
    for _ in range(30):
        p = int(rng.choice([2, 3]))
        v = int(rng.integers(2, 5))
        ambient = int(rng.integers(v, 8))
        w = int(rng.integers(1, v))
        rows = random_subspace_rows(rng, p, v, ambient)
        V = FpSubspace.from_rows(np.array(rows), p, ambient)
        result = reduce_to_dimension(V, w)
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


def _classes(V):
    functionals, sizes = _column_classes(*_distinct_columns(V.basis)[1:], V.p)
    return dict(zip(map(tuple, functionals.T.tolist()), sizes.tolist()))


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
        support, columns, counts = _distinct_columns(V.basis)
        assert support.tolist() == sorted(subspace_support(V))
        # each distinct column once, in order of first appearance
        seen = list(dict.fromkeys(map(tuple, V.basis[:, support].T.tolist())))
        assert list(map(tuple, columns.T.tolist())) == seen
        assert counts.sum() == len(support)
        assert _classes(V) == column_classes_by_loop(V.basis, p)
    # zero columns are in no class
    assert _classes(FpSubspace.from_rows(np.array([[0, 1, 0, 2, 0, 0]]), p)) == {(1,): 1 + (p > 2)}
    # dimensions on both sides of p**dim = 2**63: the columns are compared
    # entry by entry, exact however large p**dim grows
    top = next(d for d in range(1, 70) if p**d >= 2**63)
    for dim in (top - 1, top):
        rows = rng.integers(0, p, size=(dim, dim + 30))
        rows[:, dim + 20 :] = rows[:, 5:15] * rng.integers(1, p, size=10) % p
        rows[:, dim + 10 : dim + 13] = 0
        V = FpSubspace.from_rows(rows, p)
        assert V.dim == dim
        classes = _classes(V)
        assert classes == column_classes_by_loop(V.basis, p)
        assert list(classes) == sorted(classes)


@st.composite
def tied_subspaces(draw):
    """Subspaces of dimension 2..5 whose column classes repeat, often with tied counts.

    A few distinct columns are repeated, each the same number of times or
    a random number, every copy scaled by a random unit, with zero columns
    mixed in and the columns shuffled.  The echelon basis maps each class
    to one class, so equal counts stay tied.
    """
    p = draw(st.sampled_from((2, 3, 5)))
    v = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.integers(0, p, size=(v, draw(st.integers(1, 8))))
    if draw(st.booleans()):
        reps = np.full(distinct.shape[1], draw(st.integers(1, 3)))
    else:
        reps = rng.integers(1, 4, size=distinct.shape[1])
    cols = np.repeat(distinct, reps, axis=1)
    cols = cols * rng.integers(1, p, size=cols.shape[1]) % p
    cols = np.hstack([cols, np.zeros((v, draw(st.integers(0, 3))), dtype=np.int64)])
    V = FpSubspace.from_rows(cols[:, rng.permutation(cols.shape[1])], p)
    assume(V.dim >= 2)
    return V


@settings(max_examples=300, deadline=None, database=None)
@given(tied_subspaces(), st.data())
def test_reduction_matches_the_per_step_reference(V, data):
    p = V.p
    w = data.draw(st.integers(1, V.dim - 1))
    rows, size, chain, uniform = reduce_by_hyperplane_steps(V.basis.tolist(), p, w)
    res = reduce_to_dimension(V, w)
    assert res.subspace.basis.tolist() == rows
    assert (res.support_size, res.chain_bound, res.uniform_bound) == (size, chain, uniform)
    assert res.subspace.ambient_dim == V.ambient_dim and not res.subspace.basis.flags.writeable
    rows, size, chain, uniform = reduce_by_hyperplane_steps(V.basis.tolist(), p, V.dim - 1)
    best = reduce_to_dimension(V, V.dim - 1)
    assert best.subspace.basis.tolist() == rows and best.support_size == size
    # one step's chain bound is the averaging bound
    assert size <= chain == Fraction(p**V.dim - p, p**V.dim - 1) * len(subspace_support(V))
