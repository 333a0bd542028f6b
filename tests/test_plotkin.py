from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdescent import cli, plotkin
from pdescent.errors import DimensionError, InvariantError
from pdescent.fplinalg import rref
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


def _echelon(rows, p):
    """The reduced echelon basis of span(rows), which the reduction cuts."""
    e, r = rref(rows, p)
    return e[:r]


def _hyperplane(B, f, p):
    """The library's cut of span(B) by the functional f, as a basis matrix."""
    return _cut(np.eye(len(B), dtype=np.int64), f, p) @ B % p


def test_hyperplane_subspace_is_codim_one():
    # the cut the reduction's column-class count stands for: ker(f) has
    # codimension one in V and keeps exactly the columns not proportional to f
    rng = np.random.default_rng(71)
    for p in (2, 3, 5, 65521):
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            ambient = int(rng.integers(dim, 8))
            rows = random_subspace_rows(rng, p, dim, ambient)
            B = _echelon(rows, p)
            classes = column_classes_by_loop(B, p)
            for _ in range(3):
                f = rng.integers(0, p, size=dim)
                lead = int(rng.integers(0, dim))
                f[:lead] = 0
                # a leading entry other than 1 wherever p allows one
                f[lead] = rng.integers(2, p) if p > 2 else 1
                W = _hyperplane(B, f, p)
                assert W.tolist() == hyperplane_by_rows(B, f, p)
                assert len(W) == dim - 1 == mod_rank(W.tolist(), p)
                assert mod_rank(B.tolist() + W.tolist(), p) == dim
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
        B = _echelon(rows, p)
        sizes = [_support(_hyperplane(B, f, p)) for f in hyperplane_functionals(dim, p)]
        total = sum(sizes)
        expect = Fraction(p**dim - p, p - 1) * len(subspace_support(rows, p))
        assert total == expect
        # cross-check each size against the naive oracle
        assert sizes == all_hyperplane_supports(B.tolist(), p)


def test_best_hyperplane_is_true_minimum():
    rng = np.random.default_rng(79)
    for _ in range(30):
        p = int(rng.choice([2, 3]))
        dim = int(rng.integers(2, 4))
        ambient = int(rng.integers(dim, 7))
        rows = random_subspace_rows(rng, p, dim, ambient)
        result = reduce_to_dimension(rows, p, dim - 1)
        assert result.input_dim == dim
        assert result.support_size == brute_min_hyperplane_support(rows, p)
        # averaging bound: min <= (p^v - p)/(p^v - 1) |supp(V)|
        bound = Fraction(p**dim - p, p**dim - 1) * len(subspace_support(rows, p))
        assert result.support_size <= bound
        assert len(result.basis) == dim - 1


def _lead_zero_worst_case(p, v, copies=40):
    """The identity plus `copies` equal columns leading at coordinate 0.

    One functional in (p^v - 1)/(p - 1) kills the copies, so the exact
    minimum hyperplane support is v, and a random hyperplane almost surely
    keeps all v + copies coordinates.
    """
    col = np.ones((v, 1), dtype=np.int64)
    col[0] = p - 1
    return np.hstack([np.eye(v, dtype=np.int64), np.repeat(col, copies, axis=1)])


@pytest.mark.parametrize("p, v", [(2, 22), (3, 14)])
def test_best_hyperplane_over_cap_is_exact(p, v):
    # over 2**20 hyperplanes: still the exact minimum, read off the classes
    rows = _lead_zero_worst_case(p, v)
    assert (p**v - 1) // (p - 1) > 2**20
    result = reduce_to_dimension(rows, p, v - 1)
    assert result.support_size == v == len(subspace_support(result.basis, p))
    assert len(result.basis) == v - 1
    assert not result.basis[:, v:].any()
    assert contains_subspace(rows, result.basis, p)


def test_reduce_over_cap_meets_the_chain_bound():
    rows = _lead_zero_worst_case(2, 22)
    result = reduce_to_dimension(rows, 2, 1)
    assert len(result.basis) == 1
    assert result.support_size == len(subspace_support(result.basis, 2))
    assert result.support_size <= result.chain_bound == chain_factor(2, 22, 1) * (22 + 40)
    assert contains_subspace(rows, result.basis, 2)


@st.composite
def classed_subspaces(draw):
    """(rows, p): spanning rows whose columns repeat, scale one another, or vanish."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    v = draw(st.integers(2, 6))
    ambient = draw(st.integers(v, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, p, size=(v, ambient))
    rows[:, rng.integers(0, ambient, size=draw(st.integers(0, ambient // 2)))] = 0
    src, dst = rng.integers(0, ambient, size=(2, draw(st.integers(0, ambient))))
    rows[:, dst] = rows[:, src] * rng.integers(1, p, size=dst.size) % p
    assume(len(_echelon(rows, p)) >= 2)
    return rows, p


@settings(max_examples=200, deadline=None, database=None)
@given(classed_subspaces())
def test_best_hyperplane_matches_the_functional_scan(case):
    rows, p = case
    B = _echelon(rows, p)
    size, expect = best_hyperplane_by_functional_scan(B, p)
    result = reduce_to_dimension(rows, p, len(B) - 1)
    assert result.support_size == size
    assert result.basis.tolist() == expect


def test_reduce_repeats_identically():
    rng = np.random.default_rng(97)
    for rows, p in (
        (random_subspace_rows(rng, 2, 5, 10), 2),
        (random_subspace_rows(rng, 3, 4, 9), 3),
        (_lead_zero_worst_case(2, 22), 2),
    ):
        v = len(rows)
        a, b = reduce_to_dimension(rows, p, v - 1), reduce_to_dimension(rows, p, v - 1)
        assert np.array_equal(a.basis, b.basis)
        assert a.support_size == b.support_size
        a, b = reduce_to_dimension(rows, p, 2), reduce_to_dimension(rows, p, 2)
        assert np.array_equal(a.basis, b.basis)
        assert a.support_size == b.support_size


def test_reduce_to_dimension_contract():
    rng = np.random.default_rng(89)
    for _ in range(30):
        p = int(rng.choice([2, 3]))
        v = int(rng.integers(2, 5))
        ambient = int(rng.integers(v, 8))
        w = int(rng.integers(1, v))
        rows = random_subspace_rows(rng, p, v, ambient)
        result = reduce_to_dimension(rows, p, w)
        assert result.basis.shape == (w, ambient) and not result.basis.flags.writeable
        assert result.input_dim == v
        # a genuine subspace: stacking changes no rank
        assert mod_rank(rows + result.basis.tolist(), p) == v
        assert result.support_size <= chain_factor(p, v, w) * len(subspace_support(rows, p))
        assert result.chain_bound <= result.uniform_bound


def test_reduce_rejects_bad_target():
    eye = np.eye(3, dtype=np.int64)
    with pytest.raises(DimensionError):
        reduce_to_dimension(eye, 2, 0)
    with pytest.raises(DimensionError):
        reduce_to_dimension(eye, 2, 3)
    # the input dimension is the rank, not the row count
    with pytest.raises(DimensionError, match="below the input dimension 1$"):
        reduce_to_dimension([[1, 2, 0], [2, 4, 0], [0, 0, 0]], 3, 1)


def _miscount_classes(monkeypatch, change):
    """Make the reduction read the class sizes through change."""
    count = plotkin._column_classes

    def miscounted(images, counts, p):
        functionals, sizes = count(images, counts, p)
        return functionals, change(sizes)

    monkeypatch.setattr(plotkin, "_column_classes", miscounted)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda sizes: 0 * sizes, "the largest column class misses the averaging bound"),
        (lambda sizes: sizes + 1, "hyperplane support differs from its column-class count"),
    ],
    ids=["sizes-zero", "sizes-plus-one"],
)
def test_reduction_checks_fire_on_a_miscounted_class(monkeypatch, change, message):
    # explicit raises, not asserts, so they hold under python -O too
    rows = _lead_zero_worst_case(3, 3, copies=4)
    reduce_to_dimension(rows, 3, 1)
    _miscount_classes(monkeypatch, change)
    with pytest.raises(InvariantError, match=message):
        reduce_to_dimension(rows, 3, 1)


def test_reduce_command_exits_4_when_a_check_fails(monkeypatch, tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("p = 2\nrow = 1 1 0 0 1\nrow = 0 1 1 0 1\nrow = 0 0 1 1 1\n")
    _miscount_classes(monkeypatch, lambda sizes: 0 * sizes)
    assert cli.main(["reduce", str(path), "--u", "1"]) == 4
    assert capsys.readouterr().err == (
        "pdescent: internal invariant failed: the largest column class misses the averaging bound\n"
    )


def _classes(B, p):
    functionals, sizes = _column_classes(*_distinct_columns(B)[1:], p)
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
        B = _echelon(rows, p)
        support, columns, counts = _distinct_columns(B)
        assert support.tolist() == sorted(subspace_support(B, p))
        # each distinct column once, in order of first appearance
        seen = list(dict.fromkeys(map(tuple, B[:, support].T.tolist())))
        assert list(map(tuple, columns.T.tolist())) == seen
        assert counts.sum() == len(support)
        assert _classes(B, p) == column_classes_by_loop(B, p)
    # zero columns are in no class
    assert _classes(_echelon([[0, 1, 0, 2, 0, 0]], p), p) == {(1,): 1 + (p > 2)}
    # dimensions on both sides of p**dim = 2**63: the columns are compared
    # entry by entry, exact however large p**dim grows
    top = next(d for d in range(1, 70) if p**d >= 2**63)
    for dim in (top - 1, top):
        rows = rng.integers(0, p, size=(dim, dim + 30))
        rows[:, dim + 20 :] = rows[:, 5:15] * rng.integers(1, p, size=10) % p
        rows[:, dim + 10 : dim + 13] = 0
        B = _echelon(rows, p)
        assert len(B) == dim
        classes = _classes(B, p)
        assert classes == column_classes_by_loop(B, p)
        assert list(classes) == sorted(classes)


@st.composite
def tied_subspaces(draw):
    """(rows, p) spanning dimension 2..5, whose column classes repeat, often with tied counts.

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
    rows = cols[:, rng.permutation(cols.shape[1])]
    assume(len(_echelon(rows, p)) >= 2)
    return rows, p


@settings(max_examples=300, deadline=None, database=None)
@given(tied_subspaces(), st.data())
def test_reduction_matches_the_per_step_reference(case, data):
    rows, p = case
    v = len(_echelon(rows, p))
    w = data.draw(st.integers(1, v - 1))
    expect, size, chain, uniform = reduce_by_hyperplane_steps(rows.tolist(), p, w)
    res = reduce_to_dimension(rows, p, w)
    assert res.basis.tolist() == expect
    assert (res.support_size, res.chain_bound, res.uniform_bound) == (size, chain, uniform)
    assert res.input_dim == v
    assert res.basis.shape == (w, rows.shape[1]) and not res.basis.flags.writeable
    expect, size, chain, uniform = reduce_by_hyperplane_steps(rows.tolist(), p, v - 1)
    best = reduce_to_dimension(rows, p, v - 1)
    assert best.basis.tolist() == expect and best.support_size == size
    # one step's chain bound is the averaging bound
    assert size <= chain == Fraction(p**v - p, p**v - 1) * len(subspace_support(rows, p))
