"""Truncated and asymptotic overlaps.

Truncated overlaps multiply per-factor brackets up to a cutoff, all through
one walk.  Short products are read out directly; past ``DIRECT_LIMIT``
factors the running product is read from its log-modulus plus unwrapped
phase so sweeps survive far past double-precision underflow.  A factor
overlap of exactly zero short-circuits the whole product.

Long walks are bracketed in stacked numpy blocks, every term pair of a
block at once, read off each state's rows (``ProductState.rows``): its
stacked prefix, and past it a tail with closed rows, a constant tail or a
decoded canonical family.  Where both factors of a pair stay one vector
over a run of sites, the pair is bracketed once at the run's start and its
product over the run is that bracket's power, read in closed form.
Everything else, plain callbacks among it, goes one site at a time, within
``WALK_BUDGET``.  Which path a site takes depends on the two sides alone,
so a readout depends only on its cut.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from . import products
from .errors import DimensionBudgetExceeded, InconclusiveSector, PreconditionViolated
from .sectors import same_sector
from .states import (
    WALK_BUDGET,
    CompositeState,
    ConstantTail,
    FactorVector,
    ProductState,
    _prefix_brackets,
    _stacked_brackets,
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
# Tail sites one block holds at most: prefix rows are views of each state's
# stacked prefix, but tail rows are built for the block, so this bounds what
# a long tail walk holds at once.
TAIL_BLOCK_SITES = 4096

# Maps an absolute site to the factor a walk brackets there.
FactorSource = Callable[[int], FactorVector]


def _as_terms(state: ProductState | CompositeState) -> tuple[tuple[complex, ProductState], ...]:
    if isinstance(state, ProductState):
        return ((1.0 + 0j, state),)
    return state.terms


def _pair_runs(bra: tuple[int, ...], ket: tuple[int, ...]) -> tuple[int, ...]:
    """Run starts of a term pair: where both terms are in a run, a run of the
    pair starts wherever one of either term starts."""
    if not (bra and ket):
        return ()
    first = max(bra[0], ket[0])
    return tuple(sorted({s for s in bra + ket if s >= first}))


class _Terms:
    """One side of a walk: a list of product-state terms.

    The site-by-site loop fetches their factors through ``sources``; the
    block stretch reads them stacked by ``rows``, each state's own rows.
    ``explicit`` is the shortest prefix, ``stackable`` how far the block
    stretch may read: no limit when every tail has closed rows (no per-site
    callback), else ``explicit``.  ``runs[k]`` holds the run starts of term k.
    """

    def __init__(
        self, states: Sequence[ProductState], sources: Sequence[FactorSource] = ()
    ) -> None:
        self.states = tuple(states)
        self.sources = list(sources) or [s.factor_at for s in self.states]
        self.explicit = min(s.prefix_len for s in self.states)
        closed = all(s.tail.closed_rows for s in self.states)
        self.stackable = math.inf if closed else self.explicit
        self.runs = [s.run_starts for s in self.states]
        self._rows: tuple = (None, None)

    def dim_at(self, site: int) -> int:
        return self.states[0].dim_at(site)

    def run_end(self, start: int, stop: int) -> int:
        """First site in (start, stop) whose dim differs from the dim at
        ``start``, or ``stop``."""
        runs = self.states[0].dim_runs
        k = bisect_right(runs, start, key=itemgetter(0))
        return min(stop, runs[k][0]) if k < len(runs) else stop

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """(terms, sites, dim) amplitudes of the sites [lo, hi), which share
        one dim (``ProductState.rows``).  The last block is kept, so a side
        that serves as both bra and ket is stacked once."""
        if self._rows[0] != (lo, hi):
            self._rows = ((lo, hi), np.stack([s.rows(lo, hi) for s in self.states]))
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


def _stacked_blocks(
    bra: _Terms, ket: _Terms, keys: Sequence[tuple[int, int]], lo: int, hi: int
):
    """Yield (start, stop, g) for consecutive blocks of sites covering
    [lo, hi), g the (pairs, sites) brackets of the (bra term, ket term) pairs
    in ``keys``.  One einsum brackets every term pair of a block; a block
    keeps one dim, read from the bra side, about BLOCK_AMPLITUDES amplitudes
    per side and in its brackets, and at most TAIL_BLOCK_SITES sites past
    the shortest explicit prefix."""
    n_bra, n_ket = len(bra.sources), len(ket.sources)
    bra_idx, ket_idx = (np.array(ix) for ix in zip(*keys))
    explicit = min(bra.explicit, ket.explicit)
    start = lo
    while start < hi:
        d = bra.dim_at(start)
        width = max(n_bra * d, n_ket * d, n_bra * n_ket)
        stop = min(
            hi,
            start + max(1, BLOCK_AMPLITUDES // width),
            max(start, explicit) + TAIL_BLOCK_SITES,
        )
        stop = bra.run_end(start, stop)
        g = _stacked_brackets(bra.rows(start, stop), ket.rows(start, stop))
        yield start, stop, g[bra_idx, ket_idx]
        start = stop


def _bracket_blocks(
    bra: _Terms, ket: _Terms, keys: Sequence[tuple[int, int]], lo: int, hi: int
):
    """``_stacked_blocks`` with each g given as (log|g| + i angle g, g == 0)."""
    for start, stop, g in _stacked_blocks(bra, ket, keys, lo, hi):
        mod = np.abs(g)
        zeros = mod == 0
        forms = np.zeros_like(g)
        np.log(mod, out=forms.real, where=~zeros)
        forms.imag = np.angle(g)
        yield start, stop, forms, zeros


class _Walker:
    """One walk over (bra term, ket term) pairs, advanced to a cut on demand:
    ``read(cut)`` gives (value, log-modulus) of each readout sum_k c_k
    prod_{site<cut} <bra_a(site)|ket_b(site)>.  Which path brackets a site
    depends on the sides alone, so a readout depends only on its cut.

    The sites before the block end go in stacked blocks, no further than
    ``last_cut``: the block end is the shortest reach of the two sides' rows
    (``stackable``: the explicit prefixes, or for ever where every tail
    has closed rows) or the first run start of any pair, whichever comes first,
    when that lies past DIRECT_LIMIT.  A pair's log form there is a running
    sum (a seeded cumsum), so a cut inside a block reads a column.  Other
    sites are bracketed one at a time; cuts <= DIRECT_LIMIT read their
    direct product, which with blocks is all they update; with blocks those
    sites go in one stacked block too, pushed in site order (rows hold the
    bits of the factors and images, so the brackets keep theirs).  Blocked or
    not, ``check`` counts the sites past the shortest explicit prefix against
    WALK_BUDGET.

    From its first run start (``_pair_runs``) on, a pair is in a run: it
    brackets G once at the run's start a and keeps its log form there, and
    reads cut n > DIRECT_LIMIT inside the run as that log form plus
    (n - a) * (log|G|, atan2 G); it crosses a finite run in that one step.
    On the way to a cut <= DIRECT_LIMIT it pushes G into its direct product
    once per site, which keeps the bits of the site-by-site walk.  Cuts must
    not decrease, except within every pair's run or the last block.
    """

    def __init__(
        self,
        bra: _Terms,
        ket: _Terms,
        readouts: Sequence[Readout],
        last_cut: float = math.inf,
    ) -> None:
        self.keys = sorted({(a, b) for readout in readouts for _, a, b in readout})
        index = {key: k for k, key in enumerate(self.keys)}
        self.readouts = [[(c, index[a, b]) for c, a, b in readout] for readout in readouts]
        term_runs = [(bra.runs[a], ket.runs[b]) for a, b in self.keys]
        merged = {key: _pair_runs(*key) for key in set(term_runs)}  # few kinds, many pairs
        self.starts = [merged[key] for key in term_runs]
        self.firsts = [starts[0] if starts else math.inf for starts in self.starts]
        self.last_first = max(self.firsts)
        self.explicit = min(bra.explicit, ket.explicit)
        stackable = min(bra.stackable, ket.stackable, min(self.firsts))
        self.blocked = stackable if stackable > DIRECT_LIMIT else 0
        self.accs = [products._Accumulator() for _ in self.keys]
        self.sources = [(bra.sources[a], ket.sources[b]) for a, b in self.keys]
        self.steps = self.pair_steps = [(*s, acc.push) for s, acc in zip(self.sources, self.accs)]
        self.repeats: list = []  # (G, push_direct) of the pairs in a run
        # pair -> (start, end, G, log form at start) of its run at ``site``
        self.runs: dict[int, tuple[int, float, complex, products._Accumulator]] = {}
        self.events: dict[int, list[int]] = {}  # run start -> its pairs, until reached
        for k, starts in enumerate(self.starts):
            for start in starts:
                self.events.setdefault(start, []).append(k)
        self.next_event = min(self.events, default=math.inf)
        self.site = 0  # the walk holds sites [0, site)
        self.direct_at = 0  # with blocks, ``direct`` holds sites [0, direct_at)
        self.block: tuple = ()  # (start, running log forms, zeros) of the last block
        # generators: no block is bracketed before it is needed
        self.blocks = _bracket_blocks(bra, ket, self.keys, 0, min(self.blocked, last_cut))
        self.direct_blocks = _stacked_blocks(bra, ket, self.keys, 0, min(DIRECT_LIMIT, last_cut))
        self.direct_columns: list[list[complex]] = []  # brackets per site, from 0

    def check(self, cut: float) -> None:
        """Refuse a read of ``cut`` that brackets more than WALK_BUDGET term
        pairs x sites past the shortest explicit prefix, one at a time or in
        tail blocks: a pair does so up to its first run start."""
        sites = len(self.keys) * max(0, min(cut, self.last_first) - self.explicit)
        if sites > WALK_BUDGET:  # an upper bound: count pair by pair only past it
            sites = sum(max(0, min(cut, first) - self.explicit) for first in self.firsts)
        if sites > WALK_BUDGET:
            raise DimensionBudgetExceeded(
                f"the walk would bracket {sites} term-pair sites one at a time; "
                f"the budget is {WALK_BUDGET}",
                sites=sites,
                budget=WALK_BUDGET,
            )

    def read(self, cut: int) -> list[tuple[complex, float]]:
        self.check(cut)
        if cut <= DIRECT_LIMIT and self.blocked:
            self._push_direct(cut)
        else:
            self._advance(cut)
        accs = self.accs if cut <= DIRECT_LIMIT else self._log_forms(cut)
        return [_combine([(c, accs[k]) for c, k in readout], cut) for readout in self.readouts]

    def _push_direct(self, cut: int) -> None:
        """Push the sites [direct_at, cut) into every pair's direct product."""
        while len(self.direct_columns) < cut:
            _, _, g = next(self.direct_blocks)
            self.direct_columns += g.T.tolist()
        pushes = [acc.push_direct for acc in self.accs]
        for column in self.direct_columns[self.direct_at : cut]:
            for push, z in zip(pushes, column):
                push(z)
        self.direct_at = max(self.direct_at, cut)

    def _log_forms(self, cut: int) -> list[products._Accumulator]:
        """Every pair's log form at ``cut``, which the walk has reached: in
        closed form inside its run, else as walked, read off the last block
        when the cut lies inside it."""
        walked = self.accs if cut == self.site else None
        if not self.runs:
            return walked or self._block_column(cut)
        out = []
        for k in range(len(self.accs)):
            run = self.runs.get(k)
            if run is not None and run[0] <= cut:
                start, _, g, at = run
                out.append(at.repeated(g, cut - start))
            else:
                walked = walked or self._block_column(cut)
                out.append(walked[k])
        return out

    def _block_column(self, cut: int) -> list[products._Accumulator]:
        start, forms, zeros = self.block
        column = zip(forms[:, cut - start - 1].tolist(), zeros[:, cut - start - 1].tolist())
        return [products._Accumulator(f.real, f.imag, zero) for f, zero in column]

    def _advance(self, stop: float) -> None:
        """Bring the walk to site ``stop``; the last block may end past it.
        Past blocks every pair takes a site before any takes the next.  Pairs
        in a run push nothing, except into their direct product on the way to
        a cut <= DIRECT_LIMIT, so once every pair is in a run the walk moves
        from run start to run start."""
        if self.site == self.next_event:
            self._arrive()
        while self.site < stop:
            if self.site < self.blocked:
                self._fold_block()
            else:
                end = min(stop, self.next_event)
                repeats = self.repeats if stop <= DIRECT_LIMIT else ()
                if self.steps or repeats:
                    for site in range(self.site, end):
                        for bra_at, ket_at, push in self.steps:
                            push(factor_overlap(bra_at(site), ket_at(site)))
                        for g, push in repeats:
                            push(g)
                self.site = end
            if self.site == self.next_event:
                self._arrive()

    def _arrive(self) -> None:
        """Start the runs that begin at this site: a pair in a run crosses to
        its end in one step, then brackets the new run's G here."""
        starting = self.events.pop(self.site)
        self.next_event = min(self.events, default=math.inf)
        for k in starting:
            acc = self.accs[k]
            if k in self.runs:
                start, _, g, at = self.runs[k]
                crossed = at.repeated(g, self.site - start)
                acc.log_mod, acc.arg, acc.zero = crossed.log_mod, crossed.arg, crossed.zero
            starts = self.starts[k]
            later = starts.index(self.site) + 1
            end = starts[later] if later < len(starts) else math.inf
            bra_at, ket_at = self.sources[k]
            g = factor_overlap(bra_at(self.site), ket_at(self.site))
            self.runs[k] = (self.site, end, g, products._Accumulator(acc.log_mod, acc.arg, acc.zero))
        self.steps = [s for k, s in enumerate(self.pair_steps) if k not in self.runs]
        self.repeats = [(g, self.accs[k].push_direct) for k, (_, _, g, _) in self.runs.items()]

    def _fold_block(self) -> None:
        """Bracket the next block and fold it into each pair's log form."""
        start, self.site, forms, zeros = next(self.blocks)
        # running sums seeded with each pair's log form so far: a column is
        # the site-by-site sum, bit for bit (a complex sum adds the log
        # moduli and the angles apart)
        forms[:, 0] += [complex(acc.log_mod, acc.arg) for acc in self.accs]
        zeros[:, 0] |= [acc.zero for acc in self.accs]
        np.cumsum(forms, axis=1, out=forms)
        if zeros.any():
            np.logical_or.accumulate(zeros, axis=1, out=zeros)
        for acc, form, zero in zip(self.accs, forms[:, -1].tolist(), zeros[:, -1].tolist()):
            acc.log_mod, acc.arg, acc.zero = form.real, form.imag, zero
        self.block = (start, forms, zeros)


def _walk(
    bra: _Terms, ket: _Terms, readouts: Sequence[Readout], cuts: Sequence[int]
) -> list[list[tuple[complex, float]]]:
    """(value, log-modulus) of each readout at every cut, in one pass over
    the sites; one list per readout with one entry per cut.  ``cuts``
    increase, and the budget is checked against the last before any site is
    bracketed."""
    walker = _Walker(bra, ket, readouts, last_cut=cuts[-1])
    walker.check(cuts[-1])
    return [list(values) for values in zip(*(walker.read(cut) for cut in cuts))]


def composite_overlap(
    bra: ProductState | CompositeState,
    ket: ProductState | CompositeState,
    truncation: int,
) -> complex:
    """<bra|ket> at the cutoff, expanded over all term pairs: for two product
    states, the product of the first ``truncation`` per-factor overlaps
    <bra_k|ket_k>."""
    if truncation < 0:
        raise PreconditionViolated(f"truncation {truncation} must be >= 0")
    (((value, _),),) = _walk(*_sides(bra, ket), [truncation])
    return value


truncated_overlap = composite_overlap


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
    prefix = tuple(_prefix_brackets(bra, ket, span))
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
