"""Descent pipelines over towers of p-covers, and growth diagnostics.

Given a presentation complex and a series specification, the pipeline
builds covers level by level, forms the wedge family of the current
cocycle family, and reduces its span back to a fixed dimension u with the
hyperplane machinery.  Supports then shrink by at least the uniform factor
(p^(u+1) - p)/(p^(u+1) - 1) per level relative to the edge count, which is
the decaying-support signal the reports certify.

Also here: finite-prefix largeness diagnostics (never proofs) and cyclic
cover homology growth.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import fplinalg
from .complexes import (
    CocycleBasis,
    GroupPresentation,
    TwoComplex,
    build_presentation_complex,
    class_coordinates,
    h1_cocycle_basis,
    h1_dimension,
)
from .covers import (
    CoveringMap,
    _cyclic_face_rows,
    _cyclic_face_steps,
    _cyclic_weights,
    build_abelian_p_cover,
)
from .errors import InvariantError, MalformedTowerError, NotRapidlyDescendingError
from .plotkin import chain_factor, reduce_to_dimension, uniform_factor
from .wedge import build_wedge_family

__all__ = [
    "SeriesSpec",
    "TowerLevel",
    "TowerRecord",
    "DescentReport",
    "descent_parameters",
    "tower_level",
    "iter_covers",
    "run_descent",
    "CriteriaReport",
    "largeness_criteria_report",
    "GrowthReport",
    "cyclic_growth_report",
]

DEFAULT_CELL_BUDGET = 10**6
PREFIX_DISCLAIMER = "finite-prefix diagnostic, not a proof"


@dataclass(frozen=True)
class SeriesSpec:
    """How to pick the covering classes at each level of a tower.

    kind "derived" uses every class of H^1(K_i; F_p) (one full elementary
    abelian step); kind "rank" uses `rank` echelon-basis classes, preferring
    ones independent of the current family's span; kind "explicit" takes
    `levels[i]` as indices into the echelon cocycle basis of level i+1.
    """

    kind: str
    p: int
    depth: int
    cell_budget: int = DEFAULT_CELL_BUDGET
    rank: int | None = None
    levels: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("derived", "rank", "explicit"):
            raise ValueError(f"unknown series kind {self.kind!r}")
        if self.kind == "rank" and (self.rank is None or self.rank < 1):
            raise ValueError("rank series needs rank >= 1")
        if self.kind == "explicit" and not self.levels:
            raise ValueError("explicit series needs per-level class indices")
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.cell_budget < 0:
            raise ValueError("cell budget must be at least 0")
        fplinalg.validate_prime(self.p)


@dataclass(frozen=True)
class TowerRecord:
    """Per-level statistics of a descent run.

    Step fields (quotient_rank, bound_factor, wedge_count) are None on the
    final record, which only describes the deepest complex reached.
    """

    level: int
    index: int
    dp: int
    support_size: int
    edge_count: int
    relsize_upper: Fraction
    quotient_rank: int | None = None
    bound_factor: Fraction | None = None
    wedge_count: int | None = None


@dataclass(frozen=True)
class DescentReport:
    records: tuple[TowerRecord, ...]
    p: int
    u: int
    verdict: str  # decay-certified | bound-violated | budget-exhausted
    uniform_factor: Fraction
    notes: tuple[str, ...] = field(default_factory=tuple)


def descent_parameters(
    pres: GroupPresentation, prefix, p: int, lam: Fraction | None = None
) -> tuple[Fraction, int]:
    """Descent rate estimate and family dimension from a tower prefix.

    The rate is the smallest (quotient_rank - 2)/index over the prefix
    (or `lam` if the caller supplies one); the family dimension is
    ceil(4|R| / rate), floored at 1.  A non-positive rate raises
    NotRapidlyDescendingError.
    """
    fplinalg.validate_prime(p)
    if lam is None:
        prefix = [r for r in prefix if r.quotient_rank is not None]
        if not prefix:
            raise MalformedTowerError("parameter choice needs a nonempty prefix")
        lam = min(Fraction(r.quotient_rank - 2, r.index) for r in prefix)
    else:
        lam = Fraction(lam)
    if lam <= 0:
        raise NotRapidlyDescendingError(f"descent rate estimate {lam} is not positive")
    r_count = len(pres.relators)
    u = max(1, math.ceil(Fraction(4 * r_count) / lam))
    return lam, u


def _series_picks(K, basis, spec: SeriesSpec, level: int, family) -> tuple[int, ...]:
    """The next level's covering classes as indices into its echelon H^1 basis, per the series kind.

    Only the rank series reads rows: at most spec.rank + len(family).
    """
    if spec.kind == "derived":
        if not basis:
            raise ValueError(f"level {level}: H^1 is trivial, series cannot continue")
        return tuple(range(len(basis)))
    if spec.kind == "explicit":
        if level - 1 >= len(spec.levels):
            raise ValueError(f"explicit series has no classes for level {level}")
        picks = spec.levels[level - 1]
        for i in picks:
            if not 0 <= i < len(basis):
                raise ValueError(
                    f"level {level}: class index {i} out of range (H^1 has rank {len(basis)})"
                )
        return tuple(picks)
    # rank kind: prefer classes independent of the family span so the
    # complement (and with it the wedge family) stays as large as possible;
    # reading a basis row builds it, so stop once enough are chosen;
    # a row vanishes on the spanning tree, so its non-tree values are its coordinates
    if len(basis) < spec.rank:
        raise ValueError(f"level {level}: H^1 rank {len(basis)} cannot supply {spec.rank} classes")
    rows = list(class_coordinates(K, np.reshape(family, (len(family), K.num_edges)), spec.p))
    picks: list[int] = []
    for i in range(len(basis)):
        stacked = rows + [basis[i : i + 1][0, K.arrays.non_tree]]
        if fplinalg.rank(np.array(stacked, dtype=np.int64), spec.p) == len(stacked):
            rows, picks = stacked, picks + [i]
            if len(picks) == spec.rank:
                break
    # distinct echelon basis rows are independent: top up with the first unpicked ones
    return tuple(picks + [i for i in range(len(basis)) if i not in picks][: spec.rank - len(picks)])


@dataclass(frozen=True)
class TowerLevel:
    """One tower level: its complex, the complex's H^1 basis, and the cover built on it.

    basis is the lazy `CocycleBasis` itself, and picks index the basis rows
    that define the cover; past the rows the rank series reads, they are
    built only once the projected cell count fits the budget.  Otherwise
    cover is None and note says so.
    """

    level: int
    index: int
    complex: TwoComplex
    basis: CocycleBasis
    picks: tuple[int, ...]
    cover: CoveringMap | None
    note: str | None = None


def tower_level(K: TwoComplex, basis, spec: SeriesSpec, level, index, family) -> TowerLevel:
    """Pick K's covering classes in `basis`, its h1_cocycle_basis, and build their cover.

    The rank series avoids the span of `family`, a matrix of edge-value
    rows on K (empty for a bare tower).  The picked rows and their cover
    are built only when its p**n * K.num_cells cells fit the cell budget.
    """
    picks = _series_picks(K, basis, spec, level, family)
    if spec.p ** len(picks) * K.num_cells > spec.cell_budget:
        # p**n * cells, not the product, which runs to thousands of digits for a large derived step
        projected = f"{spec.p}**{len(picks)} * {K.num_cells}"
        note = f"level {level}: projected {projected} cells exceeds budget {spec.cell_budget}"
        return TowerLevel(level, index, K, basis, picks, None, note)
    cov = build_abelian_p_cover(K, basis[picks], spec.p)
    return TowerLevel(level, index, K, basis, picks, cov)


def iter_covers(K: TwoComplex, spec: SeriesSpec) -> Iterator[TowerLevel]:
    """The tower's levels over K without the wedge machinery, for an empty family.

    Stops after spec.depth levels or at the first level over budget.
    """
    index = 1
    for level in range(1, spec.depth + 1):
        step = tower_level(K, h1_cocycle_basis(K, spec.p), spec, level, index, ())
        yield step
        if step.cover is None:
            return
        index *= step.cover.degree
        K = step.cover.total


def _record(level, index, K, dp, support, **step_fields):
    return TowerRecord(
        level=level,
        index=index,
        dp=dp,
        support_size=support,
        edge_count=K.num_edges,
        relsize_upper=Fraction(support, K.num_edges),
        **step_fields,
    )


def run_descent(pres: GroupPresentation, spec: SeriesSpec, u: int) -> DescentReport:
    """Run the descent pipeline to the requested depth.

    Starts from the first u echelon classes of the presentation complex.
    Each level builds the cover named by the series, forms the wedge family
    of the current cocycle family, and reduces its span to dimension u.  A
    wedge family of size <= u stops the run with verdict bound-violated; a
    projected cell count over the budget stops it with budget-exhausted.
    """
    if u < 1:
        raise ValueError("family dimension u must be at least 1")
    p = spec.p
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    if len(basis) < u:
        raise ValueError(f"H^1 of the presentation complex has rank {len(basis)} < u = {u}")
    family = basis[:u]
    support = int(np.any(family, axis=0).sum())
    records: list[TowerRecord] = []
    notes: list[str] = []
    index = 1
    verdict = "decay-certified"

    for level in range(1, spec.depth + 1):
        if level > 1:
            basis = h1_cocycle_basis(K, p)
        step = tower_level(K, basis, spec, level, index, family)
        here = (level, index, K, len(basis), support)
        n = len(step.picks)
        cov = step.cover
        if cov is None:
            verdict = "budget-exhausted"
            notes.append(step.note)
            records.append(_record(*here, quotient_rank=n))
            break
        fam = build_wedge_family(cov, family)
        if fam.size <= u:
            verdict = "bound-violated"
            notes.append(
                f"level {level}: wedge family has {fam.size} classes, need more than u = {u}"
            )
            records.append(_record(*here, quotient_rank=n, wedge_count=fam.size))
            index *= cov.degree
            last = (level + 1, index, cov.total, h1_dimension(cov.total, p))
            records.append(_record(*last, int(np.any(fam.cocycle_basis, axis=0).sum())))
            break
        span = fplinalg.FpSubspace.from_rows(fam.cocycle_basis, p, cov.total.num_edges)
        reduction = reduce_to_dimension(span, u)
        bound = chain_factor(p, fam.size, u)
        records.append(_record(*here, quotient_rank=n, bound_factor=bound, wedge_count=fam.size))
        # the new family's support stays inside the preimage of the old one
        if reduction.support_size > cov.degree * support:
            raise InvariantError(f"level {level}: reduced family left its support's preimage")
        support = reduction.support_size
        index *= cov.degree
        K = cov.total
        family = reduction.subspace.basis
    else:
        records.append(_record(spec.depth + 1, index, K, h1_dimension(K, p), support))

    if verdict == "decay-certified":
        factor = uniform_factor(p, u)
        for a, b in zip(records, records[1:]):
            if b.relsize_upper > factor * a.relsize_upper:
                verdict = "bound-violated"
                notes.append(
                    f"levels {a.level}->{b.level}: relative size ratio exceeded {factor}"
                )
                break
    return DescentReport(
        records=tuple(records),
        p=p,
        u=u,
        verdict=verdict,
        uniform_factor=uniform_factor(p, u),
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class CriteriaReport:
    """Finite-prefix consistency check against the largeness criteria.

    rank_ratios are quotient_rank/index per level.  In units of log p
    (multiply by log p for the literal value) this is also the log-index
    growth coefficient log[G_i : G_(i+1)] / [G : G_i], because the
    elementary abelian quotient of rank n has order p^n.  running_infimum
    tracks the descent-rate statistic, the minimum of rank_ratios over the
    prefix.
    """

    entries: tuple[tuple[int, int], ...]
    rank_ratios: tuple[Fraction, ...]
    running_infimum: tuple[Fraction, ...]
    log_ratio_nondecreasing: bool
    rank_ratio_min: Fraction
    disclaimer: str = PREFIX_DISCLAIMER


def largeness_criteria_report(records) -> CriteriaReport:
    """Diagnostic sequences from (index, quotient_rank) tower records.

    Reports quotient_rank/index per level and its running minimum, and
    flags whether the prefix is consistent with unbounded log-index growth
    (the ratios never decrease).  Never a proof.
    """
    entries = [(int(i), int(n)) for i, n in records]
    if not entries:
        raise MalformedTowerError("criteria report needs a nonempty record list")
    indices = [i for i, _ in entries]
    if any(i < 1 for i in indices):
        raise MalformedTowerError("indices must be positive")
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise MalformedTowerError("indices must be strictly increasing")
    if any(n < 1 for _, n in entries):
        raise MalformedTowerError("quotient ranks must be at least 1")
    ratios = [Fraction(n, i) for i, n in entries]
    running = []
    cur = None
    for r in ratios:
        cur = r if cur is None else min(cur, r)
        running.append(cur)
    nondecreasing = all(b >= a for a, b in zip(ratios, ratios[1:]))
    return CriteriaReport(
        entries=tuple(entries),
        rank_ratios=tuple(ratios),
        running_infimum=tuple(running),
        log_ratio_nondecreasing=nondecreasing,
        rank_ratio_min=running[-1],
    )


@dataclass(frozen=True)
class GrowthReport:
    """Mod-p homology growth along the cyclic covers of a presentation complex."""

    entries: tuple[tuple[int, int, Fraction], ...]  # (order, dp, dp/order)
    positive_limit_signal: bool
    limit_estimate: Fraction
    disclaimer: str = PREFIX_DISCLAIMER


def cyclic_growth_report(
    pres: GroupPresentation, weights, p: int, max_order: int
) -> GrowthReport:
    """d_p of the cyclic covers of orders 1..max_order and the ratio trend.

    The weights must be an integer cocycle inducing a surjection onto the
    integers (gcd of loop evaluations 1), so every cyclic cover exists and
    is connected.  No cover complex is built: the order-n cover has n|V|
    vertices, n|E| edges and the base faces lifted to every deck rank as
    its faces, so d_p(n) = (n|E| - rank d2) - (n|V| - 1) needs only the
    F_p rank of the lifted face rows.  `build_cyclic_cover` followed by
    `h1_dimension` gives the same numbers from the cover itself.
    """
    fplinalg.validate_prime(p)
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    K = build_presentation_complex(pres)
    steps = _cyclic_face_steps(K, _cyclic_weights(K, weights))
    entries = []
    for order in range(1, max_order + 1):
        rank = fplinalg.sparse_rank(_cyclic_face_rows(steps, order, p), p)
        dp = order * (K.num_edges - K.num_vertices) + 1 - rank
        entries.append((order, dp, Fraction(dp, order)))
    dps = [dp for _, dp, _ in entries]
    nondecreasing = all(b >= a for a, b in zip(dps, dps[1:]))
    signal = nondecreasing and dps[-1] > dps[0]
    return GrowthReport(
        entries=tuple(entries),
        positive_limit_signal=signal,
        limit_estimate=entries[-1][2],
    )
