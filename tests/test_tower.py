from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdescent import tower
from pdescent.complexes import (
    GroupPresentation,
    TwoComplex,
    build_presentation_complex,
    h1_dimension,
    parse_presentation,
)
from pdescent.covers import build_cyclic_cover
from pdescent.errors import (
    CocycleConditionError,
    InvariantError,
    MalformedTowerError,
    NotRapidlyDescendingError,
)
from pdescent.tower import (
    SeriesSpec,
    TowerRecord,
    cyclic_growth_report,
    descent_parameters,
    largeness_criteria_report,
    run_descent,
    uniform_factor,
)

F2 = "p = 2\ngens = a b\n"
TORUS = "p = 2\ngens = a b\nrel = abAB\n"
GENUS2 = "p = 2\ngens = a b c d\nrel = abABcdCD\n"


def record(level, index, dp, rank=None):
    return TowerRecord(
        level=level,
        index=index,
        dp=dp,
        support_size=0,
        edge_count=1,
        relsize_upper=Fraction(0),
        quotient_rank=rank,
    )


def test_descent_parameters_examples():
    torus, p = parse_presentation(TORUS)
    # |R| = 1, rate 1 -> u = 4
    lam, u = descent_parameters(torus, [], p, lam=1)
    assert (lam, u) == (Fraction(1), 4)
    # free group: |R| = 0 gives u = 1 by the floor, any positive rate
    free, _ = parse_presentation(F2)
    lam, u = descent_parameters(free, [], 2, lam=Fraction(1, 2))
    assert (lam, u) == (Fraction(1, 2), 1)
    # genus-2 level-1 prefix: rank 4 at index 1 -> rate 2, u = 2
    genus2, _ = parse_presentation(GENUS2)
    lam, u = descent_parameters(genus2, [record(1, 1, 4, rank=4)], 2)
    assert (lam, u) == (Fraction(2), 2)


def test_descent_parameters_rejects_flat_prefix():
    genus2, p = parse_presentation(GENUS2)
    with pytest.raises(NotRapidlyDescendingError):
        descent_parameters(genus2, [record(1, 1, 2, rank=2)], p)
    with pytest.raises(NotRapidlyDescendingError):
        descent_parameters(genus2, [], p, lam=0)
    with pytest.raises(MalformedTowerError):
        descent_parameters(genus2, [], p)


def test_run_descent_free_group_derived():
    pres, p = parse_presentation(F2)
    spec = SeriesSpec(kind="derived", p=p, depth=2)
    report = run_descent(pres, spec, u=1)
    # wedge family of one class never exceeds u=1, so the run stops early
    assert report.verdict == "bound-violated"
    assert [r.index for r in report.records] == [1, 4]
    assert [r.dp for r in report.records] == [2, 5]


def test_run_descent_genus2_rank2_decays():
    pres, p = parse_presentation(GENUS2)
    spec = SeriesSpec(kind="rank", p=p, depth=2, rank=2)
    report = run_descent(pres, spec, u=2)
    assert report.verdict == "decay-certified"
    assert report.uniform_factor == Fraction(6, 7)
    assert len(report.records) == 3
    assert [r.index for r in report.records] == [1, 4, 16]
    relsizes = [r.relsize_upper for r in report.records]
    assert relsizes[0] == Fraction(1, 2)
    for a, b in zip(relsizes, relsizes[1:]):
        assert b <= Fraction(6, 7) * a
    # wedge-count lower bound (n - u) u - r with n the deck rank of the
    # cover built at that level and r the face count of its base
    for r in report.records[:-1]:
        faces = r.index  # one base relator lifts to index many faces
        assert r.wedge_count >= (r.quotient_rank - report.u) * report.u - faces
    # index bookkeeping: [G:G_{i+1}] = [G:G_i] * p^{n_i}
    for a, b in zip(report.records, report.records[1:]):
        assert b.index == a.index * p**a.quotient_rank


def test_run_descent_support_containment():
    # the recorded support never exceeds the preimage of the previous one
    pres, p = parse_presentation(GENUS2)
    spec = SeriesSpec(kind="rank", p=p, depth=2, rank=2)
    report = run_descent(pres, spec, u=2)
    for a, b in zip(report.records, report.records[1:]):
        degree = b.index // a.index
        assert b.support_size <= degree * a.support_size


def test_run_descent_budget_exhaustion():
    pres, p = parse_presentation(GENUS2)
    spec = SeriesSpec(kind="rank", p=p, depth=2, rank=2, cell_budget=20)
    report = run_descent(pres, spec, u=2)
    assert report.verdict == "budget-exhausted"
    assert len(report.records) == 1
    assert report.notes


def test_run_descent_validates_u():
    pres, p = parse_presentation(TORUS)
    with pytest.raises(ValueError):
        run_descent(pres, SeriesSpec(kind="derived", p=p, depth=1), u=0)
    with pytest.raises(ValueError):
        run_descent(pres, SeriesSpec(kind="derived", p=p, depth=1), u=3)


def test_series_spec_validation():
    with pytest.raises(ValueError):
        SeriesSpec(kind="wat", p=2, depth=1)
    with pytest.raises(ValueError):
        SeriesSpec(kind="rank", p=2, depth=1)
    with pytest.raises(ValueError):
        SeriesSpec(kind="explicit", p=2, depth=1)
    with pytest.raises(ValueError):
        SeriesSpec(kind="derived", p=4, depth=1)
    with pytest.raises(ValueError):
        SeriesSpec(kind="derived", p=2, depth=0)


def test_run_descent_explicit_series():
    pres, p = parse_presentation(GENUS2)
    spec = SeriesSpec(kind="explicit", p=p, depth=1, levels=((0, 1),))
    report = run_descent(pres, spec, u=2)
    assert report.records[0].quotient_rank == 2
    assert report.records[-1].index == 4


def test_family_bound_arithmetic_on_recorded_levels():
    # whenever rate*index > 4u and (n-2)/index > rate/2, the family bound
    # (n - u) u - r >= 2u holds with r = |R| * index
    pres, p = parse_presentation(GENUS2)
    spec = SeriesSpec(kind="rank", p=p, depth=2, rank=2)
    report = run_descent(pres, spec, u=2)
    lam = Fraction(2)
    u = report.u
    for rec in report.records[:-1]:
        n = rec.dp
        r = len(pres.relators) * rec.index
        if lam * rec.index > 4 * u and Fraction(n - 2, rec.index) > lam / 2:
            assert (n - u) * u - r >= 2 * u


def test_criteria_report_synthetic():
    report = largeness_criteria_report([(1, 2), (4, 5)])
    assert report.entries == ((1, 2), (4, 5))
    assert report.rank_ratios == (Fraction(2), Fraction(5, 4))
    assert report.running_infimum == (Fraction(2), Fraction(5, 4))
    assert report.rank_ratio_min == Fraction(5, 4)
    assert report.log_ratio_nondecreasing is False
    assert "not a proof" in report.disclaimer


def test_criteria_report_from_free_group_formula():
    # derived tower of F_2 at p=2: indices 1, 4, ... with n_i = index + 1
    entries = []
    index = 1
    for _ in range(3):
        n = index + 1
        entries.append((index, n))
        index *= 2**n
    report = largeness_criteria_report(entries)
    expect = [Fraction(n, i) for i, n in entries]
    assert list(report.rank_ratios) == expect
    assert report.rank_ratio_min == min(expect)


def test_criteria_report_rejects_malformed():
    with pytest.raises(MalformedTowerError):
        largeness_criteria_report([])
    with pytest.raises(MalformedTowerError):
        largeness_criteria_report([(4, 2), (1, 3)])
    with pytest.raises(MalformedTowerError):
        largeness_criteria_report([(1, 2), (1, 3)])
    with pytest.raises(MalformedTowerError):
        largeness_criteria_report([(1, 0)])


def test_cyclic_growth_free_group():
    pres, p = parse_presentation(F2)
    report = cyclic_growth_report(pres, [1, 0], p, 8)
    assert [dp for _, dp, _ in report.entries] == [i + 1 for i in range(1, 9)]
    assert report.positive_limit_signal
    assert report.limit_estimate == Fraction(9, 8)


def test_cyclic_growth_torus_no_signal():
    pres, p = parse_presentation(TORUS)
    report = cyclic_growth_report(pres, [1, 0], p, 6)
    assert [dp for _, dp, _ in report.entries] == [2] * 6
    assert not report.positive_limit_signal
    assert report.limit_estimate == Fraction(2, 6)


def test_cyclic_growth_rejects_bad_weights():
    pres, p = parse_presentation(F2)
    with pytest.raises(ValueError):
        cyclic_growth_report(pres, [0, 0], p, 4)
    with pytest.raises(ValueError):
        cyclic_growth_report(pres, [2, 0], p, 4)


def test_cyclic_growth_checks_weight_length_and_size_first():
    genus2, _ = parse_presentation(GENUS2)
    for weights in ([1, 0], [1, 0, 0, 0, 0]):
        with pytest.raises(ValueError, match="^weight vector length does not match edge count$"):
            cyclic_growth_report(genus2, weights, 3, 4)
    with pytest.raises(ValueError, match="^weight 99999999999999999999 does not fit in a 64-bit"):
        cyclic_growth_report(genus2, [99999999999999999999, 1, 0, 0], 3, 4)
    # the face sum 4 * 2**62 is 0 in int64 but not over the integers
    a4 = GroupPresentation(generators=("a", "b"), relators=("aaaa",))
    with pytest.raises(CocycleConditionError, match="to 18446744073709551616 on the boundary"):
        cyclic_growth_report(a4, [2**62, 1], 3, 4)
    # the surjection onto Z is checked before the face sums, as it always was
    aab = GroupPresentation(generators=("a", "b"), relators=("aab",))
    with pytest.raises(ValueError, match="^weights generate 2Z, not all of Z$"):
        cyclic_growth_report(aab, [2, 0], 3, 4)
    with pytest.raises(CocycleConditionError, match="^weights evaluate to 2 on the boundary of"):
        cyclic_growth_report(aab, [1, 0], 3, 4)


def test_cyclic_growth_rejects_non_integral_weights():
    # int64 would truncate 1.5 to 1 and report the growth of [1, 0]
    pres, _ = parse_presentation(TORUS)
    for weights, bad in (([1.5, 0], "1.5"), ([1, 2.0], "2.0"), (np.array([0.5, 1.0]), "0.5")):
        with pytest.raises(ValueError, match=f"^weight {bad} is not an integer$"):
            cyclic_growth_report(pres, weights, 3, 3)


def test_cyclic_growth_builds_no_cover_complex(monkeypatch):
    built = []
    set_cells = TwoComplex._set_cells

    def counted(self, *args):
        built.append(args[0])
        set_cells(self, *args)

    monkeypatch.setattr(TwoComplex, "_set_cells", counted)
    pres, _ = parse_presentation(GENUS2)
    report = cyclic_growth_report(pres, [1, -2, 0, 3], 3, 32)
    assert [dp for _, dp, _ in report.entries] == [2 + 2 * n for n in range(1, 33)]
    assert built == [1]  # the presentation complex, and no cover of it


def test_cyclic_growth_lift_that_does_not_close_is_an_invariant_failure(monkeypatch):
    # weights past the cocycle check always close; skipping the check shows
    # that a face lift left open is reported as a bug, not as bad input
    monkeypatch.setattr(tower, "_cyclic_weights", lambda K, w: np.array(w, dtype=np.int64))
    aab = GroupPresentation(generators=("a", "b"), relators=("aab",))
    with pytest.raises(InvariantError, match="^face 0 attaching path does not close"):
        cyclic_growth_report(aab, [1, 0], 3, 4)


@pytest.mark.parametrize(
    "pres, weights",
    [
        (GroupPresentation(("a", "b", "c", "d"), ("abABcdCD",)), [2**62, 1, -2**62, 3]),
        # [a^2, b]: the offset of b's step, 2 * (2**62 + 1), lies past int64
        (GroupPresentation(("a", "b"), ("aabAAB",)), [2**62 + 1, 1]),
    ],
)
def test_cyclic_growth_with_huge_weights_matches_the_built_covers(pres, weights):
    # a product of commutators closes under any weights; the step offsets
    # are weight sums, exact only over the integers
    report = cyclic_growth_report(pres, weights, 3, 24)
    K = build_presentation_complex(pres)
    want = [h1_dimension(build_cyclic_cover(K, weights, n).total, 3) for n in range(1, 25)]
    assert [dp for _, dp, _ in report.entries] == want


@st.composite
def cyclic_cases(draw):
    """(presentation, weights): 1-3 relators on which the weights, gcd 1, sum to zero.

    Each relator is a random word closed off by a power of a generator of
    weight +-1, which cancels the word's weight.
    """
    gens = "abcd"[: draw(st.integers(2, 4))]
    unit = draw(st.integers(0, len(gens) - 1))
    weights = [draw(st.integers(-3, 3)) for _ in gens]
    weights[unit] = draw(st.sampled_from((1, -1)))
    letters = st.sampled_from(gens + gens.upper())
    relators = []
    for _ in range(draw(st.integers(1, 3))):
        word = "".join(draw(st.lists(letters, min_size=1, max_size=7)))
        total = sum(weights[gens.index(ch.lower())] * (1 if ch.islower() else -1) for ch in word)
        k = -total * weights[unit]  # the power of the unit generator that cancels total
        word += (gens[unit] if k > 0 else gens[unit].upper()) * abs(k)
        relators.append(word)
    return GroupPresentation(generators=tuple(gens), relators=tuple(relators)), weights


@settings(max_examples=40, deadline=None, database=None)
@given(cyclic_cases(), st.integers(1, 40), st.sampled_from((2, 3, 5, 65521)))
def test_cyclic_growth_matches_h1_of_the_built_covers(case, max_order, p):
    pres, weights = case
    report = cyclic_growth_report(pres, weights, p, max_order)
    K = build_presentation_complex(pres)
    orders = range(1, max_order + 1)
    want = [h1_dimension(build_cyclic_cover(K, weights, n).total, p) for n in orders]
    assert [(n, dp) for n, dp, _ in report.entries] == list(zip(orders, want))


def test_uniform_factor_decay_engages_at_every_level():
    # rerun the genus-2 tower and check the certified claim explicitly
    pres, p = parse_presentation(GENUS2)
    spec = SeriesSpec(kind="rank", p=p, depth=2, rank=2)
    report = run_descent(pres, spec, u=2)
    f = uniform_factor(p, report.u)
    rel = [r.relsize_upper for r in report.records]
    assert all(b <= f * a for a, b in zip(rel, rel[1:]))
