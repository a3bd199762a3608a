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

import bisect
import cmath
import itertools
import math
import operator
from dataclasses import FrozenInstanceError
from typing import Callable, Iterable, Sequence

import numpy as np

from . import products
from .errors import DimensionBudgetExceeded, InconclusiveSector, PreconditionViolated
from .sectors import _same_sector
from .states import (
    WALK_BUDGET,
    CompositeState,
    ConstantTail,
    FactorVector,
    ProductState,
    _integer,
    _paired_brackets,
    _run_at,
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
        self._stacks: dict[int, np.ndarray] = {}
        self._rows: tuple = (None, None)

    def dim_at(self, site: int) -> int:
        return self.states[0].dim_at(site)

    def run_end(self, start: int, stop: int) -> int:
        """First site in (start, stop) whose dim differs from the dim at
        ``start``, or ``stop``."""
        runs = self.states[0].dim_runs
        k, _ = _run_at(runs, start)
        return min(stop, runs[k][0]) if k < len(runs) else stop

    def rows(self, lo: int, hi: int, reach: float = math.inf) -> np.ndarray:
        """(terms, sites, dim) amplitudes of the sites [lo, hi), which share
        one dim (``ProductState.rows``); the walk reads no site past
        ``reach``.

        Inside the explicit prefix they are a view of the side's stack of
        that dim run, built on first use and kept for the life of the side,
        one walk: a one-term side reads its state's ``prefix_rows`` through
        a leading axis, a wider side holds a copy of its terms' arrays up to
        ``explicit`` or ``reach``, whichever comes first.  Rows that reach
        into a tail are stacked per block; the last block is kept, so a side
        that serves as both bra and ket is stacked once."""
        if hi <= self.explicit:
            k, start = _run_at(self.states[0].dim_runs, lo)
            stack = self._stacks.get(k)
            if stack is None or start + stack.shape[1] < hi:
                stack = self._stacks[k] = self._stack(k, start, max(hi, reach))
            return stack[:, lo - start : hi - start]
        if self._rows[0] != (lo, hi):
            self._rows = ((lo, hi), np.stack([s.rows(lo, hi) for s in self.states]))
        return self._rows[1]

    def _stack(self, k: int, start: int, stop: float) -> np.ndarray:
        """(terms, sites, dim) stack of dim run ``k`` of the explicit prefix,
        which starts at ``start``, up to ``stop`` at most; every term has the
        same dim runs there."""
        if len(self.states) == 1:
            return self.states[0].prefix_rows[k][None]
        end = min(self.states[0].dim_runs[k][0], self.explicit, stop)
        return np.stack([s.prefix_rows[k][: end - start] for s in self.states])


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
    if not all(type(n) is int for n in cuts):  # else each is read by ``_integer``
        cuts = [_integer(n, "truncation") for n in cuts]
    if not cuts:
        raise PreconditionViolated("at least one truncation is required")
    if any(n < 1 for n in cuts) or any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise PreconditionViolated("truncations must be strictly increasing and >= 1")
    return cuts


def _combine(
    readout: Sequence[tuple[complex, int]],
    forms: Sequence[complex],
    zeros: Sequence[bool],
    truncation: int,
) -> tuple[complex, float]:
    """(value, log-modulus) of a coefficient-weighted sum of pair products:
    ``readout`` holds (coefficient, pair) and pair k's product is zero where
    ``zeros[k]``, else ``forms[k]``: the product itself up to DIRECT_LIMIT
    factors, past it its log form log|p| + i arg p."""
    # plain loops rather than comprehensions: the operations CPython 3.11's
    # sum() and max() of a list make, in their order, with no frame per list
    if truncation <= DIRECT_LIMIT:
        total = 0
        for coeff, k in readout:
            total = total + (coeff * forms[k] if not zeros[k] else 0j)
        log_mod = math.log(abs(total)) if total != 0 else -math.inf
        return total, log_mod
    live = []
    shift = None
    for coeff, k in readout:
        if not zeros[k]:
            form = forms[k]
            live.append((coeff, form))
            if shift is None or form.real > shift:
                shift = form.real
    if not live:
        return 0j, -math.inf
    reduced = 0
    for coeff, form in live:
        reduced = reduced + coeff * cmath.exp(complex(form.real - shift, form.imag))
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
    """Yield (start, stop, g) for consecutive blocks of sites covering [lo,
    hi), g the (pairs, sites) brackets of the (bra term, ket term) pairs in
    ``keys``.  A block keeps one dim, read from the bra side, about
    BLOCK_AMPLITUDES amplitudes per side and in its brackets, and at most
    TAIL_BLOCK_SITES sites past the shortest explicit prefix.  Where ``keys``
    are every pair in row-major order, one einsum brackets them all and g is
    a view of its output; else each bra term is bracketed with its own ket
    terms alone (``_paired_brackets``)."""
    n_bra, n_ket = len(bra.sources), len(ket.sources)
    every_pair = len(keys) == n_bra * n_ket  # keys are sorted and distinct
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
        rows = bra.rows(start, stop, hi), ket.rows(start, stop, hi)
        if every_pair:
            g = _stacked_brackets(*rows).reshape(n_bra * n_ket, -1)
        else:
            g = _paired_brackets(*rows, keys)
        yield start, stop, g
        start = stop


def _log_forms(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(forms, zeros) of brackets ``g``: their log forms log|g| + i atan2 g,
    0 where g is, and zeros where g == 0."""
    mod = np.abs(g)
    zeros = mod == 0
    forms = np.empty_like(g)
    np.log(mod, out=forms.real, where=~zeros)
    np.arctan2(g.imag, g.real, out=forms.imag)
    forms[zeros] = 0
    return forms, zeros


class _Walker:
    """One walk over (bra term, ket term) pairs, advanced to its cuts on
    demand: ``reads(cuts)`` gives (value, log-modulus) of each readout sum_k
    c_k prod_{site<cut} <bra_a(site)|ket_b(site)> at each of a sorted list of
    cuts, and ``read(cut)`` is its one-cut case.  Which path brackets a site
    depends on the sides alone, so a readout depends only on its cut, and
    every cut goes through ``_combine`` once, so a cut read with others keeps
    the bits it has read alone.

    The sites before the block end go in stacked blocks, no further than
    ``last_cut``: the block end is the shortest reach of the two sides' rows
    (``stackable``: the explicit prefixes, or for ever where every tail
    has closed rows) or the first run start of any pair, whichever comes first,
    when that lies past DIRECT_LIMIT.  A pair's log form there is a running
    sum (a seeded cumsum), so a cut inside a block reads a column
    (``log_columns`` hands the columns' log moduli to the horizon's screen).
    From its first run start (``_pair_runs``) on, a pair is in a run: it
    brackets G once at the run's start, where its accumulator stays, and
    crosses the run in one step.  Other sites are bracketed one at a time.
    ``check`` counts the sites past the shortest explicit prefix against
    WALK_BUDGET, once per ``reads``, for its last cut.

    Each pair keeps one record of its direct products at cuts up to
    DIRECT_LIMIT, multiplied in site order from 1, and of the first cut at
    which its product is zero, appended by whichever path brackets a site:
    the site-by-site loop's accumulator and a run's G once a site as they
    go, a blocked walk's brackets (which keep the bits of the rows' factors
    and images) only when a cut up to DIRECT_LIMIT is read.  Until then it
    keeps them raw, a copy of at most DIRECT_LIMIT columns (``raw``), so a
    walk read only past DIRECT_LIMIT never multiplies them out; one whose
    last cut is at most DIRECT_LIMIT folds no log forms either.

    One reader, ``_columns``, reads every cut, each pair one way: a cut up
    to DIRECT_LIMIT from the record, multiplied out that far first, in any
    order once the walk has passed it; a later cut inside the pair's run from
    the run's start, its log form plus count * (log|G|, atan2 G) by
    ``_Accumulator.jumps``; any other from the walk's own form at its site or
    a column of the last block.  It reads in one batch the cuts before the
    next run start where every pair is in a run and the walk is at the
    first, else the cuts inside the last block, with one gather.  Past
    DIRECT_LIMIT, cuts must not decrease, except within every pair's run or
    within the last block, and any other earlier cut is refused
    (``PreconditionViolated``).
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
        pair_runs = [merged[key] for key in term_runs]
        self.firsts = [starts[0] if starts else math.inf for starts in pair_runs]
        self.last_first = max(self.firsts)
        self.explicit = min(bra.explicit, ket.explicit)
        stackable = min(bra.stackable, ket.stackable, min(self.firsts))
        self.blocked = stackable if stackable > DIRECT_LIMIT else 0
        self.accs = [products._Accumulator() for _ in self.keys]
        self.sources = [(bra.sources[a], ket.sources[b]) for a, b in self.keys]
        self.steps = self.pair_steps = [(*s, acc.push) for s, acc in zip(self.sources, self.accs)]
        # the record: each pair's direct products at cuts 0, 1, ... and the
        # first cut at which its product is zero
        self.direct = [[1.0 + 0j] for _ in self.keys]
        self.zero_at = [math.inf] * len(self.keys)
        # a blocked walk's (pairs, sites) brackets of the sites below
        # DIRECT_LIMIT, not yet multiplied out
        self.raw = np.empty((len(self.keys), 0), dtype=complex)
        self.last_cut = last_cut
        # pair -> (start, end, G, _log_steps(G)) of its run at ``site``; its
        # accumulator holds sites [0, start)
        self.runs: dict[int, tuple[int, float, complex, tuple | None]] = {}
        self.events: dict[int, list[tuple[int, float]]] = {}  # run start -> (pair, run end)
        for k, starts in enumerate(pair_runs):
            for start, end in zip(starts, starts[1:] + (math.inf,)):
                self.events.setdefault(start, []).append((k, end))
        self.next_event = min(self.events, default=math.inf)
        self.site = 0  # the walk holds sites [0, site)
        self.block: tuple = ()  # (start, running log forms, zeros) of the last block
        # a generator: no block is bracketed before it is needed
        self.blocks = _bracket_blocks(bra, ket, self.keys, 0, min(self.blocked, last_cut))

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

    def refused_from(self) -> int:
        """The first cut that ``check`` refuses among those before every
        pair's first run start."""
        return self.explicit + WALK_BUDGET // len(self.keys) + 1

    def read(self, cut: int) -> list[tuple[complex, float]]:
        """``reads`` of the one cut."""
        (values,) = self.reads([cut])
        return values

    def reads(self, cuts: Sequence[int]) -> list[list[tuple[complex, float]]]:
        """(value, log-modulus) of each readout at each of ``cuts``, which do
        not decrease: one list per cut.  The budget is checked against the
        last cut before any site is bracketed."""
        self.check(cuts[-1])
        out = []
        i = 0
        while i < len(cuts):
            self._advance(cuts[i])
            j, forms, zeros = self._columns(cuts, i)
            for cut, forms, zeros in zip(cuts[i:j], forms, zeros):
                out.append([_combine(readout, forms, zeros, cut) for readout in self.readouts])
            i = j
        return out

    def _columns(self, cuts: Sequence[int], i: int) -> tuple[int, Iterable, Iterable]:
        """(j, forms, zeros), a row of every pair's forms and one of its zero
        flags at each of cuts[i:j]: ``cuts[i]``, which the walk has reached,
        and the cuts after it that read the same way, as the class docstring
        says.  Where a pair's jumps refuse, the cuts are read again one at a
        time and pair by pair, so the batch raises what a lone read of its
        first refused cut raises."""
        cut = cuts[i]
        if cut <= DIRECT_LIMIT:
            held = len(self.direct[0]) - 1  # a blocked walk's rows are as long
            if held < cut and self.blocked:
                for k, brackets in enumerate(self.raw[:, held:cut].tolist()):
                    self._record(k, brackets)
            return i + 1, [[row[cut] for row in self.direct]], [[cut >= z for z in self.zero_at]]
        accs, j, walked = self.accs, i + 1, None
        if self.site == cut and len(self.runs) == len(accs):
            j = bisect.bisect_left(cuts, self.next_event, i)
            self.site = cuts[j - 1]  # where reading them one at a time leaves the walk
        elif self.block and self.block[0] < cut <= self.block[0] + self.block[1].shape[1]:
            start, forms, zeros = self.block
            j = bisect.bisect_right(cuts, start + forms.shape[1], i)
            at = [c - start - 1 for c in cuts[i:j]]
            walked = forms[:, at].T.tolist(), zeros[:, at].T.tolist()
        elif cut == self.site:
            walked = [[complex(a.log_mod, a.arg) for a in accs]], [[a.zero for a in accs]]
        batch, n = cuts[i:j], len(accs)
        jumped = []  # (pair, forms, zero flags) at each cut of the pairs inside their run
        try:
            for k in range(n) if walked is None else sorted(self.runs):
                run = self.runs.get(k)
                if run is not None and run[0] <= cut:
                    start, _, g, steps = run
                    logs, args, flags = zip(*accs[k].jumps(g, steps, [c - start for c in batch]))
                    jumped.append((k, list(map(complex, logs, args)), flags))
                elif walked is None:
                    raise PreconditionViolated(
                        f"the walk is at site {self.site} and cannot read back to cut {cut}"
                    )
        except (DimensionBudgetExceeded, OverflowError):
            for c in batch:  # raise what a lone read of the first refused cut raises
                for k, (start, _, g, steps) in sorted(self.runs.items()):
                    if start <= cut:
                        accs[k].jump(g, steps, c - start)
            raise
        if walked is None:  # every pair, in pair order
            _, forms, zeros = zip(*jumped)
            return j, zip(*forms), zip(*zeros)
        for k, pair_forms, flags in jumped:
            for row, zero_row, form, zero in zip(*walked, pair_forms, flags):
                row[k], zero_row[k] = form, zero
        return j, *walked

    def log_columns(self, lo: int, hi: int):
        """Yield (first cut, log moduli, zero flags) for consecutive stretches
        of the cuts [lo, hi), each inside one block: (pairs, cuts) arrays of
        the real parts and zero flags of every pair's block columns there,
        folding the blocks as it goes.  The cuts lie in [1, blocked), and
        ``check`` passes the last."""
        cut = lo
        while cut < hi:
            self._advance(cut)
            start, forms, zeros = self.block
            stop = min(hi, start + forms.shape[1] + 1)
            yield cut, forms.real[:, cut - start - 1 : stop - start - 1], zeros[
                :, cut - start - 1 : stop - start - 1
            ]
            cut = stop

    def _record(self, k: int, brackets: list[complex]) -> None:
        """Append pair k's direct products over ``brackets``, the brackets
        of the sites after those its record holds, up to DIRECT_LIMIT."""
        row = self.direct[k]
        if self.zero_at[k] == math.inf and 0 in brackets:
            self.zero_at[k] = len(row) + brackets.index(0)
        # accumulate yields its initial product first, so it is popped here
        row += itertools.accumulate(brackets, operator.mul, initial=row.pop())

    def _advance(self, stop: float) -> None:
        """Bring the walk to site ``stop``; the last block may end past it.
        Past blocks every pair takes a site before any takes the next; pairs
        in a run take none."""
        if self.site == self.next_event:
            self._arrive()
        while self.site < stop:
            if self.site < self.blocked:
                self._fold_block()
            else:
                end = min(stop, self.next_event)
                if self.steps:
                    for site in range(self.site, end):
                        for bra_at, ket_at, push in self.steps:
                            push(factor_overlap(bra_at(site), ket_at(site)))
                        if site < DIRECT_LIMIT:
                            self._record_accumulators(site + 1)
                self.site = end
            if self.site == self.next_event:
                self._arrive()

    def _record_accumulators(self, cut: int) -> None:
        """Append the product at ``cut`` of each pair outside a run."""
        for k, acc in enumerate(self.accs):
            if k not in self.runs:
                self.direct[k].append(acc.direct)
                if acc.zero and self.zero_at[k] == math.inf:
                    self.zero_at[k] = cut

    def _arrive(self) -> None:
        """Start the runs that begin at this site: a pair in a run crosses to
        its end in one step, then brackets the new run's G here."""
        starting = self.events.pop(self.site)
        self.next_event = min(self.events, default=math.inf)
        for k, end in starting:
            acc = self.accs[k]
            if k in self.runs:
                start, _, g, steps = self.runs[k]
                acc.log_mod, acc.arg, acc.zero = acc.jump(g, steps, self.site - start)
            bra_at, ket_at = self.sources[k]
            g = factor_overlap(bra_at(self.site), ket_at(self.site))
            self.runs[k] = (self.site, end, g, products._log_steps(g))
            if self.site < DIRECT_LIMIT:
                self._record(k, [g] * (min(end, DIRECT_LIMIT) - self.site))
        self.steps = [s for k, s in enumerate(self.pair_steps) if k not in self.runs]

    def _fold_block(self) -> None:
        """Bracket the next block, keep a copy of its brackets below
        DIRECT_LIMIT raw, and fold it into each pair's log form, which only
        cuts past DIRECT_LIMIT read."""
        start, self.site, g = next(self.blocks)
        if start < DIRECT_LIMIT:
            self.raw = np.concatenate([self.raw, g[:, : DIRECT_LIMIT - start]], axis=1)
        if self.last_cut <= DIRECT_LIMIT:
            return
        forms, zeros = _log_forms(g)
        # running sums seeded with each pair's log form so far: a column is
        # the sequential sum of the block's own per-site forms (a complex sum
        # adds the log moduli and the angles apart).  numpy's abs, log and
        # arctan2 may round otherwise than the site-by-site walk's abs,
        # math.log and math.atan2, so the two agree within rounding only.
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
    the sites and one ``_Walker.reads``; one list per readout with one entry
    per cut.  ``cuts`` increase, and the budget is checked against the last
    before any site is bracketed."""
    walker = _Walker(bra, ket, readouts, last_cut=cuts[-1])
    return [list(values) for values in zip(*walker.reads(cuts))]


def composite_overlap(
    bra: ProductState | CompositeState,
    ket: ProductState | CompositeState,
    truncation: int,
) -> complex:
    """<bra|ket> at the cutoff, expanded over all term pairs: for two product
    states, the product of the first ``truncation`` per-factor overlaps
    <bra_k|ket_k>."""
    truncation = _integer(truncation, "truncation")
    if truncation < 0:
        raise PreconditionViolated(f"truncation {truncation} must be >= 0")
    (((value, _),),) = _walk(*_sides(bra, ket), [truncation])
    return value


truncated_overlap = composite_overlap


def _sweep_column(column: Sequence, dtype: type) -> np.ndarray:
    """``column`` as a new array of ``dtype``, refusing None, strings, bytes
    and bools, which numpy would read as numbers; a numeric array, or exact
    complex and float entries as the walks pass, skip the look at each one."""
    try:
        if not (isinstance(column, np.ndarray) and column.dtype.kind in "iufc"):
            if not set(map(type, column)) <= {complex, float} and any(
                isinstance(v, (str, bytes, bool, np.bool_, type(None))) for v in column
            ):
                raise TypeError("found None, a string, bytes or a bool")
        return np.array(column, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionViolated(f"sweep columns must be numbers: {exc}") from None


class OverlapSweep:
    """Overlap values recorded at increasing truncations.

    ``log_modulus`` stays meaningful long after ``values`` underflow.  The
    two columns are kept as complex128 and float64 arrays, 24 bytes a cut,
    and read back as tuples of Python complex and float numbers with the
    same bits; ``truncations`` is a tuple of ints, which may lie past the
    float range.  A sweep is immutable, and compares, hashes and pickles by
    its three columns."""

    __slots__ = ("truncations", "_values", "_log_modulus")

    def __init__(
        self,
        truncations: Sequence[int],
        values: Sequence[complex],
        log_modulus: Sequence[float],
    ) -> None:
        cuts = tuple(truncations)
        if not all(type(n) is int for n in cuts):  # else each is read by ``_integer``
            cuts = tuple(_integer(n, "truncation") for n in cuts)
        columns = _sweep_column(values, complex), _sweep_column(log_modulus, float)
        if not (columns[0].ndim == columns[1].ndim == 1):
            raise PreconditionViolated("sweep columns must be flat")
        if not (len(cuts) == len(columns[0]) == len(columns[1])):
            raise PreconditionViolated("sweep columns must have equal lengths")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise PreconditionViolated("truncations must be strictly increasing")
        for column in columns:
            column.setflags(write=False)
        object.__setattr__(self, "truncations", cuts)
        object.__setattr__(self, "_values", columns[0])
        object.__setattr__(self, "_log_modulus", columns[1])

    @property
    def values(self) -> tuple[complex, ...]:
        return tuple(self._values.tolist())

    @property
    def log_modulus(self) -> tuple[float, ...]:
        return tuple(self._log_modulus.tolist())

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (
            f"OverlapSweep(truncations={self.truncations!r}, "
            f"values={self.values!r}, log_modulus={self.log_modulus!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            self.truncations == other.truncations
            and np.array_equal(self._values, other._values)
            and np.array_equal(self._log_modulus, other._log_modulus)
        )

    def __hash__(self) -> int:
        # a NaN hashes by its identity and the columns are read anew on each
        # call, so the bytes are hashed, with -0.0 made 0.0 as == reads it
        columns = (self._values + 0).tobytes(), (self._log_modulus + 0).tobytes()
        return hash((self.truncations, *columns))

    def __reduce__(self) -> tuple:
        return OverlapSweep, (self.truncations, self._values, self._log_modulus)

    def first_below(self, eps: float) -> int | None:
        """Smallest recorded truncation with overlap modulus < eps; a NaN
        log modulus is never below."""
        if not (eps > 0.0):
            raise PreconditionViolated("eps must be positive")
        below = np.flatnonzero(self._log_modulus < math.log(eps))
        return self.truncations[below[0]] if len(below) else None


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
    return OverlapSweep(cuts, [v for v, _ in walked], [log for _, log in walked])


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
    verdict, brackets = _same_sector(bra, ket)
    if verdict.kind == "DifferentSector":
        return 0j
    if verdict.kind == "Inconclusive":
        raise InconclusiveSector(
            "sector verdict is Inconclusive; the asymptotic overlap is undecided",
            certificate=verdict.certificate,
        )

    prefix = tuple(brackets)  # of the sites below the longer prefix
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
