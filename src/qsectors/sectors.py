"""Sequence classes and sector membership.

A product state is a convergent sequence when the product of its factor
norms converges, and a non-trivial convergent sequence when the summed
absolute deviations of those norms from 1 converge.  Two non-trivial states
sit in the same sector exactly when the summed absolute deviations of their
per-factor overlaps from 1 converge.

Verdicts carry certificates (for convergent series) or witnesses (per-term
lower bounds) so that every claim can be re-verified independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionBudgetExceeded, PreconditionViolated, ShapeMismatch, ZeroNormFactor
from .states import (
    ALIGN_EXACT,
    ALIGN_GRAY,
    WALK_BUDGET,
    ConstantTail,
    FactorVector,
    ProductState,
    TailRule,
    _bracket_bound,
    _bracket_series_bound,
    _check_finite,
    _integer,
    _prefix_brackets,
    _prefix_norms,
    _row_norms,
    _spans,
    ensure_same_shape,
    factor_overlap,
)

__all__ = [
    "SequenceClass",
    "SectorVerdict",
    "classify_sequence",
    "same_sector",
    "normed_representative",
    "apply_finite_change",
]

_SEQ_KINDS = (
    "NotConvergentSequence",
    "ConvergentSequence",
    "NonTrivialConvergentSequence",
)
_SECTOR_KINDS = ("SameSector", "DifferentSector", "Inconclusive")


@dataclass(frozen=True)
class SequenceClass:
    kind: str
    evidence: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _SEQ_KINDS:
            raise PreconditionViolated(f"unknown sequence kind {self.kind!r}")


@dataclass(frozen=True)
class SectorVerdict:
    kind: str
    certificate: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _SECTOR_KINDS:
            raise PreconditionViolated(f"unknown sector kind {self.kind!r}")


def classify_sequence(state: ProductState) -> SequenceClass:
    """Norm-product behavior of a single product state."""
    prefix_norms = _prefix_norms(state)
    limit, decay = state.tail.limit, state.tail.decay
    evidence: dict = {
        "limit_norm": limit.norm,
        "decay_kind": decay.kind,
        "summable": decay.summable,
        "prefix_norm_deviation": sum(abs(n - 1.0) for n in prefix_norms),
        "proven": True,
    }

    zero_at = next((i for i, n in enumerate(prefix_norms) if n == 0.0), None)
    if zero_at is None:
        zero_at = _zero_tail_site(state)
    if zero_at is not None:
        evidence["zero_factor_at"] = zero_at
        evidence["note"] = "a zero factor makes the norm product converge to 0"
        return SequenceClass("ConvergentSequence", evidence)

    dev = abs(limit.norm - 1.0)
    if dev <= ALIGN_EXACT:
        if decay.summable:
            evidence["norm_series_bound"] = evidence["prefix_norm_deviation"] + (
                decay.series_bound(state.prefix_len)
            )
            return SequenceClass("NonTrivialConvergentSequence", evidence)
        return _probe_norm_series(state, evidence)
    if limit.norm < 1.0:
        evidence["note"] = "factor norms settle below 1, so the norm product is 0"
        return SequenceClass("ConvergentSequence", evidence)
    evidence["note"] = "factor norms settle above 1, so the norm product diverges"
    return SequenceClass("NotConvergentSequence", evidence)


def _zero_tail_site(state: ProductState) -> int | None:
    """Scan the early tail while the declared bound still allows zero norms."""
    limit, decay = state.tail.limit, state.tail.decay
    site = state.prefix_len
    checked = 0
    while checked < 1_000:
        bound = decay.bound(site)
        if bound < limit.norm / 2.0 and limit.norm > 0.0:
            return None
        if state.tail.factor_at(site).norm == 0.0:
            return site
        site += 1
        checked += 1
    return None


def _probe_norm_series(state: ProductState, evidence: dict) -> SequenceClass:
    """Numeric fallback when the declared class does not certify summability."""
    window = 4096
    start = state.prefix_len
    first = sum(_norm_deviations(state, start, start + window))
    second = sum(_norm_deviations(state, start + window, start + 2 * window))
    evidence["proven"] = False
    evidence["method"] = "numeric-probe"
    evidence["probe_window"] = window
    evidence["probe_sums"] = (first, second)
    if second <= max(ALIGN_EXACT * window, 0.25 * first):
        return SequenceClass("NonTrivialConvergentSequence", evidence)
    return SequenceClass("ConvergentSequence", evidence)


def _norm_deviations(state: ProductState, lo: int, hi: int) -> list[float]:
    """|norm - 1| of the factors at the sites [lo, hi), read off the state's
    rows with the bits ``FactorVector.norm`` gives."""
    return np.abs(_row_norms(state.rows(lo, hi)) - 1.0).tolist()


def same_sector(a: ProductState, b: ProductState) -> SectorVerdict:
    """Decide whether two non-trivial states carry the sector relation."""
    return _same_sector(a, b)[0]


def _same_sector(a: ProductState, b: ProductState) -> tuple[SectorVerdict, list[complex]]:
    """``same_sector``, and the brackets of the two states' factors below
    the longer prefix that it read (``_prefix_brackets``)."""
    ensure_same_shape(a, b)
    for name, s in (("first", a), ("second", b)):
        kind = s.sequence_class.kind
        if kind != "NonTrivialConvergentSequence":
            raise PreconditionViolated(
                f"{name} state is {kind}; sector membership needs "
                "NonTrivialConvergentSequence",
                classification=kind,
            )
    span = max(a.prefix_len, b.prefix_len)
    brackets = _prefix_brackets(a, b, span)
    prefix_deficits = [abs(z - 1.0) for z in brackets]
    differing = tuple(
        k for k, d in enumerate(prefix_deficits) if d > ALIGN_EXACT
    )

    deficit_inf = abs(factor_overlap(a.tail.limit, b.tail.limit) - 1.0)

    certificate: dict = {
        "differing_prefix_indices": differing,
        "prefix_deficit_sum": sum(prefix_deficits),
        "limit_overlap_deficit": deficit_inf,
    }

    both_summable = a.tail.decay.summable and b.tail.decay.summable
    if deficit_inf <= ALIGN_EXACT:
        if not both_summable:
            certificate["reason"] = (
                "tail limits align but a declared class does not certify a "
                "summable approach"
            )
            return SectorVerdict("Inconclusive", certificate), brackets
        certificate["deficit_series_bound"] = certificate["prefix_deficit_sum"] + (
            _bracket_series_bound(a.tail, b.tail, span)
        )
        certificate["method"] = (
            "constant-tails"
            if isinstance(a.tail, ConstantTail) and isinstance(b.tail, ConstantTail)
            else "declared-decay"
        )
        return SectorVerdict("SameSector", certificate), brackets

    if deficit_inf > ALIGN_GRAY:
        witness_site = _witness_site(a.tail, b.tail, deficit_inf, span)
        if witness_site is not None:
            certificate["per_term_lower_bound"] = deficit_inf / 2.0
            certificate["from_site"] = witness_site
        else:
            certificate["note"] = (
                "per-term localization unavailable for the declared classes; "
                "the deficit series still diverges by comparison with the "
                "summable approach bounds"
            )
        return SectorVerdict("DifferentSector", certificate), brackets

    certificate["reason"] = "limit overlap deficit falls in the tolerance gray zone"
    return SectorVerdict("Inconclusive", certificate), brackets


def _witness_site(
    bra: TailRule, ket: TailRule, deficit_inf: float, start: int
) -> int | None:
    """First site from which per-term deficits provably stay >= deficit/2."""
    site = max(start, 1)
    for _ in range(64):
        if _bracket_bound(bra, ket, site) <= deficit_inf / 2.0:
            return site
        site *= 2
        if site > 10**7:
            break
    return None


def normed_representative(state: ProductState) -> ProductState:
    """Scale every factor to unit modulus, keeping its phase."""
    prefix = []
    for rows in state.prefix_rows:
        norms = _row_norms(rows)
        if not norms.all():
            raise ZeroNormFactor("cannot normalize a zero vector")
        # FactorVector.normalized row by row: any row not of norm 1 is
        # multiplied by 1 / norm as CPython multiplies a float into a
        # complex, (1 / norm + 0j) * c, in real parts, so even the signs of
        # zeros agree; a row of norm 1 stays as it is
        scaled = np.empty(rows.shape, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # Python floats do not warn
            scale = (1.0 / norms)[:, None]
            scaled.real = scale * rows.real - 0.0 * rows.imag
            scaled.imag = scale * rows.imag + 0.0 * rows.real
        unit = norms == 1.0
        scaled[unit] = rows[unit]
        _check_finite(scaled)
        prefix.append(scaled)
    tail = state.tail
    if tail.limit.norm == 0.0:
        raise ZeroNormFactor("tail limit has zero norm")
    # normalizing both sides at worst doubles the distance bound
    new_tail = tail.mapped(FactorVector.normalized, 2.0 * tail.decay.scale / tail.limit.norm)
    return ProductState._of_rows(prefix, new_tail, label=state.label)


def apply_finite_change(
    state: ProductState, changes: dict[int, FactorVector]
) -> ProductState:
    """Replace factors at finitely many sites, keeping the tail rule.

    Sites are absolute and 0-based and may point past the current prefix;
    tail factors are materialized up to the largest changed site first, at
    most ``WALK_BUDGET`` of them.
    """
    if not changes:
        return state
    coerced: dict[int, FactorVector] = {}
    for site, vec in changes.items():
        site = _integer(site, "change site")
        if site < 0:
            raise PreconditionViolated(f"change site {site} must be >= 0")
        v = vec if isinstance(vec, FactorVector) else FactorVector(tuple(vec))
        if v.dim != state.dim_at(site):
            raise ShapeMismatch(
                f"change at site {site} has dim {v.dim}, state has {state.dim_at(site)}"
            )
        coerced[site] = v
    new_len = max(state.prefix_len, max(coerced) + 1)
    if new_len - state.prefix_len > WALK_BUDGET:
        raise DimensionBudgetExceeded(
            f"a change at site {new_len - 1} would materialize "
            f"{new_len - state.prefix_len} tail sites; the budget is {WALK_BUDGET}",
            sites=new_len - state.prefix_len,
            budget=WALK_BUDGET,
        )
    prefix = []
    for lo, hi in _spans(state, new_len):
        rows = np.array(state.rows(lo, hi))
        for site, v in coerced.items():
            if lo <= site < hi:
                rows[site - lo] = v.amplitudes
        prefix.append(rows)
    return ProductState._of_rows(prefix, state.tail, label=state.label)
