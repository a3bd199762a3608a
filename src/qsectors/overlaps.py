"""Truncated and asymptotic overlaps.

Truncated overlaps multiply per-factor brackets up to a cutoff, all through
one walk.  Short products are read out directly; past ``DIRECT_LIMIT``
factors the running product is read from its log-modulus plus unwrapped
phase so sweeps survive far past double-precision underflow.  A factor
overlap of exactly zero short-circuits the whole product.

Long explicit prefixes are bracketed in stacked numpy blocks, every term
pair of a block at once.  From the site where every term's factors are
declared to repeat one vector, each pair is bracketed once and the rest of
the product is that bracket's power, read in closed form.  Everything else
goes one site at a time, within ``WALK_BUDGET``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from . import products
from .errors import DimensionBudgetExceeded, InconclusiveSector, PreconditionViolated
from .sectors import same_sector
from .states import (
    CompositeState,
    ConstantTail,
    FactorVector,
    ProductState,
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
# Amplitudes one block of the stacked walk holds, per side and in its brackets.
BLOCK_AMPLITUDES = 2**16
# Term pairs x sites a walk may bracket one at a time past the shortest
# explicit prefix; closed-form stretches do not count.
WALK_BUDGET = 2**21

# Maps an absolute site to the factor a walk brackets there.
FactorSource = Callable[[int], FactorVector]


def _as_terms(state: ProductState | CompositeState) -> tuple[tuple[complex, ProductState], ...]:
    if isinstance(state, ProductState):
        return ((1.0 + 0j, state),)
    return state.terms


def _constant_from(state: ProductState) -> float:
    """First site from which every factor of ``state`` is declared to be one
    vector, or inf."""
    decay = state.tail.decay
    if decay.kind != "eventually-constant":
        return math.inf
    return max(state.prefix_len, decay.rank)


class _Terms:
    """One side of a walk: a list of product-state terms.

    The site-by-site loop fetches their factors through ``sources``; the
    block stretch reads their explicit prefixes, stacked by ``rows``.  From
    ``constant_from`` on, every term repeats one factor.
    """

    def __init__(
        self, states: Sequence[ProductState], sources: Sequence[FactorSource] = ()
    ) -> None:
        self.states = tuple(states)
        self.sources = list(sources) or [s.factor_at for s in self.states]
        self.explicit = min(s.prefix_len for s in self.states)
        self.constant_from = max(_constant_from(s) for s in self.states)
        self._rows: tuple = (None, None)

    def dim_at(self, site: int) -> int:
        return self.states[0].prefix[site].dim

    def run_end(self, start: int, stop: int) -> int:
        """First prefix site in (start, stop) whose dim differs from the dim
        at ``start``, or ``stop``."""
        prefix = self.states[0].prefix
        d = prefix[start].dim
        return next((s for s in range(start + 1, stop) if prefix[s].dim != d), stop)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """(terms, sites, dim) amplitudes of the prefix sites [lo, hi), which
        share one dim.  The last block is kept, so a side that serves as
        both bra and ket is stacked once."""
        if self._rows[0] != (lo, hi):
            shape = (len(self.states), hi - lo, self.dim_at(lo))
            flat = chain.from_iterable(
                f.amplitudes for s in self.states for f in s.prefix[lo:hi]
            )
            block = np.fromiter(flat, complex, math.prod(shape)).reshape(shape)
            self._rows = ((lo, hi), block)
        return self._rows[1]


# One readout of a walk: (c_k, bra term index, ket term index) per product.
Readout = Sequence[tuple[complex, int, int]]


def _sides(
    bra: ProductState | CompositeState, ket: ProductState | CompositeState
) -> tuple[_Terms, _Terms, list[Readout]]:
    """Walk input for <bra|ket>: both sides and one readout over all term pairs."""
    ensure_same_shape(bra, ket)
    bra_terms, ket_terms = _as_terms(bra), _as_terms(ket)
    bra_side = _Terms([s for _, s in bra_terms])
    ket_side = bra_side if ket is bra else _Terms([s for _, s in ket_terms])
    readout = [
        (cm.conjugate() * cn, a, b)
        for a, (cm, _) in enumerate(bra_terms)
        for b, (cn, _) in enumerate(ket_terms)
    ]
    return bra_side, ket_side, [readout]


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


def _bracket_blocks(
    bra: _Terms, ket: _Terms, keys: Sequence[tuple[int, int]], lo: int, hi: int
):
    """Yield (start, stop, log|g|, angle g, g == 0) for consecutive blocks of
    sites covering [lo, hi), each array (pairs, sites) over the (bra term,
    ket term) pairs in ``keys``.  One einsum brackets every term pair of a
    block; a block keeps one dim, read from the bra side, and about
    BLOCK_AMPLITUDES amplitudes per side and in its brackets."""
    n_bra, n_ket = len(bra.sources), len(ket.sources)
    bra_idx, ket_idx = (np.array(ix) for ix in zip(*keys))
    start = lo
    while start < hi:
        d = bra.dim_at(start)
        width = max(n_bra * d, n_ket * d, n_bra * n_ket)
        stop = bra.run_end(start, min(hi, start + max(1, BLOCK_AMPLITUDES // width)))
        g = np.einsum(
            "asi,bsi->abs", bra.rows(start, stop).conj(), ket.rows(start, stop)
        )[bra_idx, ket_idx]
        mod = np.abs(g)
        zeros = mod == 0
        yield start, stop, np.log(mod, out=np.zeros_like(mod), where=~zeros), np.angle(g), zeros
        start = stop


def _push_sites(steps, start: int, stop: int) -> None:
    """Bracket sites [start, stop) one at a time, every pair advancing one
    site before any pair takes the next."""
    for site in range(start, stop):
        for bra_at, ket_at, push in steps:
            push(factor_overlap(bra_at(site), ket_at(site)))


def _check_budget(pairs: int, start: int, stop: float) -> None:
    """Refuse a walk that would bracket more than WALK_BUDGET term-pair
    sites one at a time between ``start`` and ``stop``."""
    sites = pairs * max(0, stop - start)
    if sites > WALK_BUDGET:
        raise DimensionBudgetExceeded(
            f"the walk would bracket {sites} term-pair sites one at a time; "
            f"the budget is {WALK_BUDGET}",
            sites=sites,
            budget=WALK_BUDGET,
        )


def _walk(
    bra: _Terms, ket: _Terms, readouts: Sequence[Readout], cuts: Sequence[int]
) -> list[list[tuple[complex, float]]]:
    """(value, log-modulus) of each readout sum_k c_k prod_{site<n}
    <bra_a(site)|ket_b(site)> at every cut n, in one pass over the sites.

    Returns one list per readout with one entry per cut; ``cuts`` increase.
    Sites up to the last cut <= DIRECT_LIMIT, sites past an explicit prefix
    and explicit stretches of DIRECT_LIMIT sites or fewer are bracketed one
    site at a time, every pair advancing one site before any pair takes the
    next so sources may share per-site work; readouts there keep the direct
    product's bits.  The remaining stretch, held explicitly by every term,
    is bracketed in stacked blocks and folded into the log form only.

    From j, the later ``constant_from`` of the two sides, each pair is
    bracketed once, at j, giving G.  Sites up to a cut <= DIRECT_LIMIT push
    G once per site; a readout past DIRECT_LIMIT takes the log form at j
    plus (n - j) * (log|G|, atan2 G), whatever other cuts were asked for.
    """
    keys = sorted({(a, b) for readout in readouts for _, a, b in readout})
    accs = {key: products._Accumulator() for key in keys}
    keyed = [[(c, (a, b)) for c, a, b in readout] for readout in readouts]
    groups = [[(c, accs[key]) for c, key in group] for group in keyed]
    steps = [(bra.sources[a], ket.sources[b], accs[a, b].push) for a, b in keys]
    explicit = min(bra.explicit, ket.explicit)
    jump = max(bra.constant_from, ket.constant_from)
    _check_budget(len(keys), explicit, min(cuts[-1], jump))
    lo = max((cut for cut in cuts if cut <= DIRECT_LIMIT), default=0)
    hi = min(explicit, cuts[-1])
    if hi - lo <= DIRECT_LIMIT:
        lo = hi = 0  # no block stretch
    blocks = _bracket_blocks(bra, ket, keys, lo, hi)
    block = (lo, lo, None, None, None)

    def stacked(start: int, stop: int) -> None:
        nonlocal block
        while start < stop:
            if start >= block[1]:
                block = next(blocks)
            b0, b1, logs, args, zeros = block
            end = min(stop, b1)
            part = slice(start - b0, end - b0)
            for acc, log_mod, arg, zero in zip(
                accs.values(),  # in the order of keys, like the block rows
                logs[:, part].sum(axis=1).tolist(),
                args[:, part].sum(axis=1).tolist(),
                zeros[:, part].any(axis=1).tolist(),
            ):
                acc.push_logs(log_mod, arg, zero)
            start = end

    at_jump: dict = {}  # per pair: (its product at j, G, push)
    out: list[list[tuple[complex, float]]] = [[] for _ in groups]
    start = 0
    for cut in cuts:
        _push_sites(steps, start, min(cut, lo))
        stacked(max(start, lo), min(cut, hi))
        _push_sites(steps, max(start, hi), min(cut, jump))
        read = groups
        if cut > jump:
            if not at_jump:
                for key, (bra_at, ket_at, push) in zip(keys, steps):
                    g = factor_overlap(bra_at(jump), ket_at(jump))
                    at_jump[key] = accs[key].repeated(g, 0), g, push
            if cut <= DIRECT_LIMIT:
                for site in range(max(start, jump), cut):
                    for _, g, push in at_jump.values():
                        push(g)
            else:
                jumped = {key: acc.repeated(g, cut - jump) for key, (acc, g, _) in at_jump.items()}
                read = [[(c, jumped[key]) for c, key in group] for group in keyed]
        start = cut
        for values, group in zip(out, read):
            values.append(_combine(group, cut))
    return out


def truncated_overlap(
    bra: ProductState, ket: ProductState, truncation: int
) -> complex:
    """Product of the first ``truncation`` per-factor overlaps <bra_k|ket_k>."""
    if truncation < 0:
        raise PreconditionViolated(f"truncation {truncation} must be >= 0")
    (((value, _),),) = _walk(*_sides(bra, ket), [truncation])
    return value


def composite_overlap(
    bra: ProductState | CompositeState,
    ket: ProductState | CompositeState,
    truncation: int,
) -> complex:
    """<bra|ket> at the cutoff, expanded over all term pairs."""
    if truncation < 0:
        raise PreconditionViolated(f"truncation {truncation} must be >= 0")
    (((value, _),),) = _walk(*_sides(bra, ket), [truncation])
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
    return _sweep(*_sides(bra, ket), cuts)


def _sweep(
    bra: _Terms, ket: _Terms, readouts: Sequence[Readout], cuts: list[int]
) -> OverlapSweep:
    (walked,) = _walk(bra, ket, readouts, cuts)
    values, logs = zip(*walked)
    return OverlapSweep(tuple(cuts), values, logs)


def _combined_tail_class(a: ProductState, b: ProductState) -> dict:
    """Product-series class tag implied by the two tail declarations."""
    da, db = a.tail.decay, b.tail.decay
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
