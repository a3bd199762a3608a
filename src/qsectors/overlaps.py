"""Truncated and asymptotic overlaps.

Truncated overlaps multiply per-factor brackets up to a cutoff, all through
one walk.  Short products are read out directly; past ``DIRECT_LIMIT``
factors the running product is read from its log-modulus plus unwrapped
phase so sweeps survive far past double-precision underflow.  A factor
overlap of exactly zero short-circuits the whole product.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import products
from .errors import InconclusiveSector, PreconditionViolated
from .sectors import same_sector
from .states import (
    CompositeState,
    ConstantTail,
    FactorVector,
    ProductState,
    _tail_descriptor,
    ensure_same_shape,
    factor_overlap,
)

__all__ = [
    "OverlapSweep",
    "truncated_overlap",
    "composite_overlap",
    "overlap_sweep",
    "asymptotic_overlap",
]

DIRECT_LIMIT = 64

# Maps an absolute site to the factor a walk brackets there.
FactorSource = Callable[[int], FactorVector]


def _as_terms(state: ProductState | CompositeState) -> tuple[tuple[complex, ProductState], ...]:
    if isinstance(state, ProductState):
        return ((1.0 + 0j, state),)
    return state.terms


def _state_pairs(
    bra: ProductState | CompositeState, ket: ProductState | CompositeState
) -> list[tuple[complex, FactorSource, FactorSource]]:
    """Walk input for <bra|ket>: one entry per (bra term, ket term) pair."""
    ensure_same_shape(bra, ket)
    return [
        (cm.conjugate() * cn, sm.factor_at, sn.factor_at)
        for cm, sm in _as_terms(bra)
        for cn, sn in _as_terms(ket)
    ]


def _check_cuts(truncations: Sequence[int]) -> list[int]:
    cuts = list(truncations)
    if not cuts:
        raise PreconditionViolated("at least one truncation is required")
    if any(n < 1 for n in cuts) or any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise PreconditionViolated("truncations must be strictly increasing and >= 1")
    return cuts


def _combine(
    pairs: Sequence[tuple[complex, products._Accumulator]], truncation: int
) -> tuple[complex, float]:
    """(value, log-modulus) of a coefficient-weighted sum of pair products."""
    if truncation <= DIRECT_LIMIT:
        total = sum(coeff * acc.direct if not acc.zero else 0j for coeff, acc in pairs)
        log_mod = math.log(abs(total)) if total != 0 else -math.inf
        return total, log_mod
    live = [(coeff, acc) for coeff, acc in pairs if not acc.zero]
    if not live:
        return 0j, -math.inf
    shift = max(acc.log_mod for _, acc in live)
    reduced = sum(
        coeff * cmath.exp(complex(acc.log_mod - shift, acc.arg)) for coeff, acc in live
    )
    if reduced == 0:
        return 0j, -math.inf
    log_mod = shift + math.log(abs(reduced))
    value = reduced * math.exp(shift) if shift < 700.0 else cmath.exp(
        complex(min(log_mod, 700.0), cmath.phase(reduced))
    )
    return value, log_mod


def _walk(
    pairs: Sequence[tuple[complex, FactorSource, FactorSource]], cuts: Sequence[int]
) -> list[tuple[complex, float]]:
    """(value, log-modulus) of sum_k c_k prod_{site<n} <bra_k(site)|ket_k(site)>
    at every cut n, in one pass over the sites.

    ``pairs`` holds (c_k, bra_k, ket_k), the factor sources mapping a site to
    its FactorVector; ``cuts`` increase.  Every pair advances one site before
    any pair takes the next, so sources may share per-site work.
    """
    accs = [(coeff, products._Accumulator()) for coeff, _, _ in pairs]
    steps = [(bra_at, ket_at, acc.push) for (_, bra_at, ket_at), (_, acc) in zip(pairs, accs)]
    out = []
    start = 0
    for cut in cuts:
        for site in range(start, cut):
            for bra_at, ket_at, push in steps:
                push(factor_overlap(bra_at(site), ket_at(site)))
        start = cut
        out.append(_combine(accs, cut))
    return out


def truncated_overlap(
    bra: ProductState, ket: ProductState, truncation: int
) -> complex:
    """Product of the first ``truncation`` per-factor overlaps <bra_k|ket_k>."""
    if truncation < 0:
        raise PreconditionViolated(f"truncation {truncation} must be >= 0")
    ((value, _),) = _walk(_state_pairs(bra, ket), [truncation])
    return value


def composite_overlap(
    bra: ProductState | CompositeState,
    ket: ProductState | CompositeState,
    truncation: int,
) -> complex:
    """<bra|ket> at the cutoff, expanded over all term pairs."""
    if truncation < 0:
        raise PreconditionViolated(f"truncation {truncation} must be >= 0")
    ((value, _),) = _walk(_state_pairs(bra, ket), [truncation])
    return value


@dataclass(frozen=True)
class OverlapSweep:
    """Overlap values recorded at increasing truncations.

    ``log_modulus`` stays meaningful long after ``values`` underflow."""

    truncations: tuple[int, ...]
    values: tuple[complex, ...]
    log_modulus: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.truncations) == len(self.values) == len(self.log_modulus)):
            raise PreconditionViolated("sweep columns must have equal lengths")
        if any(b <= a for a, b in zip(self.truncations, self.truncations[1:])):
            raise PreconditionViolated("truncations must be strictly increasing")

    def first_below(self, eps: float) -> int | None:
        """Smallest recorded truncation with overlap modulus < eps."""
        if not (eps > 0.0):
            raise PreconditionViolated("eps must be positive")
        threshold = math.log(eps)
        for n, log_mod in zip(self.truncations, self.log_modulus):
            if log_mod < threshold:
                return n
        return None


def overlap_sweep(
    bra: ProductState | CompositeState,
    ket: ProductState | CompositeState,
    truncations: Sequence[int],
) -> OverlapSweep:
    """One pass over the factor stream, recording at each requested cutoff."""
    cuts = _check_cuts(truncations)
    return _sweep(_state_pairs(bra, ket), cuts)


def _sweep(
    pairs: Sequence[tuple[complex, FactorSource, FactorSource]], cuts: list[int]
) -> OverlapSweep:
    values, logs = zip(*_walk(pairs, cuts))
    return OverlapSweep(tuple(cuts), values, logs)


def _combined_tail_class(a: ProductState, b: ProductState) -> dict:
    """Product-series class tag implied by the two tail declarations."""
    _, da = _tail_descriptor(a.tail)
    _, db = _tail_descriptor(b.tail)
    kinds = {da.kind, db.kind}
    if "custom-certified" in kinds:
        return {"klass": "custom"}
    if kinds <= {"eventually-constant"}:
        return {"klass": "eventually-one"}
    ps = [d.p for d in (da, db) if d.kind == "p-series"]
    if ps:
        return {"klass": "p-series-log-modulus", "p": min(ps)}
    ratios = [d.ratio for d in (da, db) if d.kind == "geometric"]
    return {"klass": "geometric-modulus", "ratio": max(ratios)}


def asymptotic_overlap(bra: ProductState, ket: ProductState) -> complex:
    """Limit of the truncated overlap as the cutoff grows without bound.

    Exactly 0 across sectors; inside one sector the per-factor overlap
    product is classified and its (quasi-)convergence value returned.
    """
    verdict = same_sector(bra, ket)
    if verdict.kind == "DifferentSector":
        return 0j
    if verdict.kind == "Inconclusive":
        raise InconclusiveSector(
            "sector verdict is Inconclusive; the asymptotic overlap is undecided",
            certificate=verdict.certificate,
        )

    span = max(bra.prefix_len, ket.prefix_len)
    prefix = tuple(
        factor_overlap(bra.factor_at(k), ket.factor_at(k)) for k in range(span)
    )
    if isinstance(bra.tail, ConstantTail) and isinstance(ket.tail, ConstantTail):
        # SameSector already certified the tail bracket is 1 within tolerance
        tail: products.ConstantValue | products.ClosedFormTail = products.ConstantValue(
            1.0 + 0j
        )
    else:
        combined = _combined_tail_class(bra, ket)
        tail = products.ClosedFormTail(
            term_fn=lambda n: factor_overlap(
                bra.factor_at(n - 1), ket.factor_at(n - 1)
            ),
            **combined,
        )
    verdict2 = products.classify_product(
        products.ComplexSequenceSpec(prefix=prefix, tail=tail)
    )
    if verdict2.kind == "ConvergesTo":
        return verdict2.value
    if verdict2.kind == "QuasiConvergesToZero":
        return 0j
    raise InconclusiveSector(
        "overlap product did not settle within budget", verdict=verdict2.kind
    )
