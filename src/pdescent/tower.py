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

import functools
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
    "iter_levels",
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
    rows = list(class_coordinates(K, family, spec.p))
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
    """One tower level: its complex, its index over the base, and the family on it.

    family is the matrix of the cocycle family's edge values on the complex
    (no rows for a bare tower).  A step level also holds the complex's lazy
    H^1 basis, the picks that index the basis rows defining the next cover,
    and that cover; past the rows the rank series reads, the picked rows are
    built only once the projected cell count fits the budget.  Otherwise
    cover is None and note says so.  With a family, wedge_count is the size
    of the cover's wedge family.  The deepest complex reached is a level
    without basis, picks or cover.  dp is len(basis) on a step level and
    h1_dimension on the deepest complex, computed when first read.
    """

    level: int
    index: int
    complex: TwoComplex
    p: int
    family: np.ndarray
    basis: CocycleBasis | None = None
    picks: tuple[int, ...] | None = None
    cover: CoveringMap | None = None
    note: str | None = None
    wedge_count: int | None = None

    @functools.cached_property
    def dp(self) -> int:
        return h1_dimension(self.complex, self.p) if self.basis is None else len(self.basis)

    @functools.cached_property
    def support(self) -> int:
        """The number of edges on which some family row is nonzero."""
        return int(np.any(self.family, axis=0).sum())


def iter_levels(K: TwoComplex, spec: SeriesSpec, u: int = 0) -> Iterator[TowerLevel]:
    """The tower's levels over K, carrying a family of u cocycles (none for a bare tower).

    The family starts as the first u rows of K's echelon H^1 basis.  Each
    step picks its covering classes (the rank series avoids the family's
    span) and builds their cover only when its p**n * cells fit the cell
    budget; with a family, the wedge family over the cover is reduced to
    dimension u and becomes the next level's family.  The last level
    yielded is the first one over budget or the deepest complex reached:
    spec.depth steps down, or one step below a wedge family of size <= u,
    whose classes are then its family.  Nothing of a level is built before
    it is asked for.
    """
    if u < 0:
        raise ValueError("family dimension u must be at least 0")
    p, budget = spec.p, spec.cell_budget
    basis = h1_cocycle_basis(K, p)
    if len(basis) < u:
        raise ValueError(f"H^1 of the presentation complex has rank {len(basis)} < u = {u}")
    family = basis[:u]
    index = 1
    for level in range(1, spec.depth + 1):
        if level > 1:
            basis = h1_cocycle_basis(K, p)
        picks = _series_picks(K, basis, spec, level, family)
        step = functools.partial(TowerLevel, level, index, K, p, family, basis, picks)
        if p ** len(picks) * K.num_cells > budget:
            # p**n * cells, not the product, which runs to thousands of digits for a large derived step
            projected = f"{p}**{len(picks)} * {K.num_cells}"
            yield step(note=f"level {level}: projected {projected} cells exceeds budget {budget}")
            return
        cov = build_abelian_p_cover(K, basis[picks], p)
        index *= cov.degree
        K = cov.total
        if not u:
            yield step(cov)
            family = np.zeros((0, K.num_edges), dtype=np.int64)
            continue
        fam = build_wedge_family(cov, family)
        here = step(cov, wedge_count=fam.size)
        yield here
        if fam.size <= u:
            yield TowerLevel(level + 1, index, K, p, fam.cocycle_basis)
            return
        reduction = reduce_to_dimension(fam.cocycle_basis, p, u)
        # the new family's support stays inside the preimage of the old one
        if reduction.support_size > cov.degree * here.support:
            raise InvariantError(f"level {level}: reduced family left its support's preimage")
        family = reduction.basis
    yield TowerLevel(spec.depth + 1, index, K, p, family)


def _record(lvl: TowerLevel, u: int) -> TowerRecord:
    edges, w = lvl.complex.num_edges, lvl.wedge_count
    return TowerRecord(
        level=lvl.level,
        index=lvl.index,
        dp=lvl.dp,
        support_size=lvl.support,
        edge_count=edges,
        relsize_upper=Fraction(lvl.support, edges),
        quotient_rank=None if lvl.picks is None else len(lvl.picks),
        bound_factor=chain_factor(lvl.p, w, u) if w is not None and w > u else None,
        wedge_count=w,
    )


def run_descent(pres: GroupPresentation, spec: SeriesSpec, u: int) -> DescentReport:
    """Run the descent pipeline to the requested depth: one record per level of `iter_levels`.

    A wedge family of size <= u gives verdict bound-violated, and a
    projected cell count over the budget budget-exhausted; otherwise the
    relative size must shrink by the uniform factor at every level.
    """
    if u < 1:
        raise ValueError("family dimension u must be at least 1")
    records: list[TowerRecord] = []
    notes: list[str] = []
    verdict = "decay-certified"
    for lvl in iter_levels(build_presentation_complex(pres), spec, u):
        records.append(_record(lvl, u))
        if lvl.note:
            verdict = "budget-exhausted"
            notes.append(lvl.note)
        elif lvl.wedge_count is not None and lvl.wedge_count <= u:
            verdict = "bound-violated"
            size = lvl.wedge_count
            notes.append(f"level {lvl.level}: wedge family has {size} classes, need more than u = {u}")

    factor = uniform_factor(spec.p, u)
    if verdict == "decay-certified":
        for a, b in zip(records, records[1:]):
            if b.relsize_upper > factor * a.relsize_upper:
                verdict = "bound-violated"
                notes.append(
                    f"levels {a.level}->{b.level}: relative size ratio exceeded {factor}"
                )
                break
    return DescentReport(
        records=tuple(records),
        p=spec.p,
        u=u,
        verdict=verdict,
        uniform_factor=factor,
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
