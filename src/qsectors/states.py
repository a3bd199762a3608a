"""Core state model.

A state over a countable ordered family of factor spaces is stored as a
finite ``prefix`` of explicit per-factor vectors plus a ``tail`` rule that
describes every factor beyond the prefix.  Tail rules are either a constant
vector repeated forever or a declared parametric family.  All types here are
immutable; operations return new objects.

Site indices are absolute and 0-based throughout, so materializing tail
factors into the prefix never changes which vector lives at a given site.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, groupby
from numbers import Real
from operator import itemgetter
from typing import Callable, ClassVar, Iterable, Sequence, Union

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidAmplitude,
    PreconditionViolated,
    ShapeMismatch,
    UndeclaredTailClass,
    ZeroNormFactor,
)

__all__ = [
    "FactorVector",
    "DecaySpec",
    "ConstantTail",
    "ParametricTail",
    "TailRule",
    "ProductState",
    "CompositeState",
    "make_product_state",
    "basis_vector",
    "factor_overlap",
    "shapes_match",
    "ensure_same_shape",
    "distance",
]

# The package's tolerances, defined here once and imported everywhere else.
#
# ALIGN_EXACT  deviations at or below it count as exactly zero: per-factor
#              overlaps and constant tail terms this close to 1 are 1,
#              matrices this close to Hermitian or to the identity are so,
#              and pointer amplitudes, density-matrix traces and Hermiticity
#              are checked against it.
# ALIGN_GRAY   deviations above it are decisive.  Sector verdicts falling in
#              the band between the two report Inconclusive rather than
#              rounding either way; unit-norm checks on factors use it.
ALIGN_EXACT = 1e-12
ALIGN_GRAY = 1e-9

# Sites a computation may visit one at a time: term pairs x sites a walk
# brackets past the shortest explicit prefix (closed-form stretches do not
# count), tail sites a finite change materializes, cuts a sweep is asked for.
WALK_BUDGET = 2**21

# Prefix spans up to this many sites are bracketed one site at a time, so
# short prefixes build and keep no arrays: for a state bracketed once,
# stacking its prefix pays off only from a few dozen sites on.
STACK_MIN = 64


def _as_complex_tuple(values: Iterable[complex]) -> tuple[complex, ...]:
    out = []
    for v in values:
        c = complex(v)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise InvalidAmplitude(f"non-finite amplitude {c!r}")
        out.append(c)
    return tuple(out)


@dataclass(frozen=True)
class FactorVector:
    """One factor-space vector: a finite tuple of complex amplitudes."""

    amplitudes: tuple[complex, ...]
    norm_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        amps = _as_complex_tuple(self.amplitudes)
        if not amps:
            raise InvalidAmplitude("factor vector needs at least one amplitude")
        object.__setattr__(self, "amplitudes", amps)
        # added left to right on every Python version (3.12's float sum
        # compensates); _row_norms adds the columns of a block in this order
        norm_sq = 0.0
        for c in amps:
            norm_sq += c.real * c.real + c.imag * c.imag
        object.__setattr__(self, "norm_sq", norm_sq)

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)

    def scaled(self, factor: complex) -> "FactorVector":
        return FactorVector(tuple(factor * c for c in self.amplitudes))

    def normalized(self) -> "FactorVector":
        """Divide by the modulus of the vector; the phase is untouched."""
        n = self.norm
        if n == 0.0:
            raise ZeroNormFactor("cannot normalize a zero vector")
        if n == 1.0:
            return self
        return self.scaled(1.0 / n)

    def distance_to(self, other: "FactorVector") -> float:
        if other.dim != self.dim:
            raise ShapeMismatch(f"dims {self.dim} vs {other.dim}")
        return math.sqrt(
            sum(abs(a - b) ** 2 for a, b in zip(self.amplitudes, other.amplitudes))
        )


def basis_vector(dim: int, index: int) -> FactorVector:
    if not 0 <= index < dim:
        raise IndexOutOfRange(f"basis index {index} outside dim {dim}")
    return FactorVector(tuple(1.0 + 0j if k == index else 0j for k in range(dim)))


def factor_overlap(bra: FactorVector, ket: FactorVector) -> complex:
    """<bra|ket> with the bra conjugated."""
    if bra.dim != ket.dim:
        raise ShapeMismatch(f"factor dims differ: {bra.dim} vs {ket.dim}")
    return sum(
        a.conjugate() * b for a, b in zip(bra.amplitudes, ket.amplitudes)
    )


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``FactorVector.norm`` of each row of a (sites, dim) complex array, bit
    for bit: the squared moduli are added one column at a time, left to
    right, as ``norm_sq`` adds them, and numpy's sqrt rounds as math.sqrt."""
    squares = rows.real * rows.real + rows.imag * rows.imag
    norm_sq = squares[:, 0]
    for column in squares.T[1:]:
        norm_sq = norm_sq + column
    return np.sqrt(norm_sq)


def _stacked_brackets(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """(bra terms, ket terms, sites) brackets of two (terms, sites, dim)
    stacks of rows.  Each entry equals ``factor_overlap`` of its two rows bit
    for bit, since einsum adds a bracket's products in row order as the
    scalar sum does; test_stacked_brackets_match_factor_overlap_bits fails
    first if a numpy release changes that order."""
    return np.einsum("asi,bsi->abs", bra.conj(), ket)


_DECAY_KINDS = ("eventually-constant", "geometric", "p-series", "custom-certified")


def _check_declared(owner: str, name: str, value: object, kind: type = Real) -> None:
    """Refuse a given declared constant that is a bool, not a ``kind``, or an
    int past the float range (unquoted: it may run to thousands of digits)."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, kind)):
        what = "an int" if kind is int else "a real number"
        raise UndeclaredTailClass(f"{owner} {name} must be {what}, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise UndeclaredTailClass(f"{owner} {name} lies outside the float range")


@dataclass(frozen=True)
class DecaySpec:
    """Declared decay class of ``factor_fn(n) - limit`` for a parametric tail.

    The declaration is a certification supplied by the caller:

    - ``eventually-constant``: the factor equals the limit for n >= rank.
    - ``geometric``: norm distance bounded by scale * ratio**n, ratio < 1.
    - ``p-series``: norm distance bounded by scale * (n+1)**(-p).
    - ``custom-certified``: the summed distances are certified <= scale.
    """

    kind: str
    ratio: float | None = None
    p: float | None = None
    rank: int | None = None
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _DECAY_KINDS:
            raise UndeclaredTailClass(f"unknown decay class {self.kind!r}")
        _check_declared("decay", "ratio", self.ratio)
        _check_declared("decay", "p", self.p)
        _check_declared("decay", "rank", self.rank, int)
        if not (math.isfinite(self.scale) and self.scale >= 0.0):
            raise UndeclaredTailClass("decay scale must be finite and nonnegative")
        if self.kind == "geometric":
            if self.ratio is None or not 0.0 <= self.ratio < 1.0:
                raise UndeclaredTailClass("geometric decay needs 0 <= ratio < 1")
        if self.kind == "p-series":
            if self.p is None or not self.p > 0.0:  # NaN too
                raise UndeclaredTailClass("p-series decay needs p > 0")
        if self.kind == "eventually-constant":
            if self.rank is None or self.rank < 0:
                raise UndeclaredTailClass("eventually-constant decay needs rank >= 0")

    @property
    def summable(self) -> bool:
        """Whether the declaration certifies a convergent distance series."""
        if self.kind == "p-series":
            return self.p is not None and self.p > 1.0
        return True

    def bound(self, n: int) -> float:
        if self.kind == "eventually-constant":
            return 0.0 if n >= self.rank else self.scale
        if self.kind == "geometric":
            return self.scale * self.ratio**n
        if self.kind == "p-series":
            return self.scale * (n + 1) ** (-self.p)
        return self.scale

    def shifted(self, sites: int) -> "DecaySpec":
        """A declaration that still holds once the declared factors move
        ``sites`` sites later, so that site n carries the factor of n - sites."""
        if sites == 0 or self.kind == "custom-certified":
            return self
        if self.kind == "eventually-constant":
            return replace(self, rank=self.rank + sites)
        if self.kind == "p-series":
            # (n - sites + 1)**-p <= (sites + 1)**p * (n + 1)**-p for n >= sites
            return replace(self, scale=self.scale * (sites + 1) ** self.p)
        if self.ratio > 0.0:
            return replace(self, scale=self.scale / self.ratio**sites)
        # ratio 0 bounds only the first factor; every later one is the limit
        return DecaySpec("eventually-constant", rank=sites + 1, scale=self.scale)

    def series_bound(self, start: int) -> float:
        """Upper bound on the summed distances over sites n >= start."""
        if self.kind == "eventually-constant":
            return self.scale * max(self.rank - start, 0)
        if self.kind == "geometric":
            return self.scale * self.ratio**start / (1.0 - self.ratio)
        if self.kind == "p-series":
            if self.p <= 1.0:
                return math.inf
            m = start + 1
            return self.scale * (m ** (-self.p) + m ** (1.0 - self.p) / (self.p - 1.0))
        return self.scale


@dataclass(frozen=True)
class ConstantTail:
    """Every factor beyond the prefix is this vector.

    ``limit`` and ``decay`` give the same declaration view as
    ``ParametricTail``: the limit is the vector and the factors equal it from
    the first tail site on.
    """

    vector: FactorVector
    decay: ClassVar[DecaySpec] = DecaySpec("eventually-constant", rank=0, scale=0.0)
    # ``rows`` calls no per-site callback
    closed_rows: ClassVar[bool] = True

    @property
    def limit(self) -> FactorVector:
        return self.vector

    @property
    def dim(self) -> int:
        return self.vector.dim

    @property
    def norm_sq(self) -> float:
        return self.vector.norm_sq

    def factor_at(self, site: int) -> FactorVector:
        return self.vector

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The vector repeated over sites [lo, hi): a read-only (hi - lo,
        dim) broadcast view."""
        return np.broadcast_to(np.array(self.vector.amplitudes), (hi - lo, self.dim))

    def shifted(self, sites: int) -> "ConstantTail":
        return self

    def mapped(self, fn: Callable[[FactorVector], FactorVector], scale: float) -> "ConstantTail":
        """The tail of ``fn(vector)``; it still equals its limit, so ``scale``
        is not needed."""
        return ConstantTail(fn(self.vector))


@dataclass(frozen=True)
class ParametricTail:
    """Factors beyond the prefix come from a pure closed-form callback.

    Site n carries ``factor_fn(max(n - shift, 0))``: ``factor_fn`` receives
    the absolute 0-based site index of the tail before it was moved
    ``shift`` sites later (``shifted``).  ``limit`` is the vector the
    factors approach and ``decay`` certifies how fast, at the moved sites;
    series tests lean on that certification, so callers own its correctness.
    """

    dim: int
    factor_fn: Callable[[int], FactorVector]
    limit: FactorVector
    decay: DecaySpec
    shift: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.decay, DecaySpec):
            raise UndeclaredTailClass("parametric tail needs a declared DecaySpec")
        if self.limit.dim != self.dim:
            raise ShapeMismatch(
                f"tail limit dim {self.limit.dim} differs from declared {self.dim}"
            )
        for probe in (0, 1, 5):
            v = self.factor_fn(probe)
            if not isinstance(v, FactorVector):
                raise InvalidAmplitude("factor_fn must return FactorVector")
            if v.dim != self.dim:
                raise ShapeMismatch(
                    f"factor_fn({probe}) has dim {v.dim}, declared {self.dim}"
                )

    def factor_at(self, site: int) -> FactorVector:
        # max(site - shift, 0), without the cost of a builtin call per site
        shift = self.shift
        return self.factor_fn(site - shift if site > shift else 0)

    @property
    def closed_rows(self) -> bool:
        """Whether ``rows`` calls no per-site callback: a decoded canonical
        family builds its rows itself."""
        return isinstance(self.factor_fn, _CanonicalFamily)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The factors of sites [lo, hi) as one (hi - lo, dim) complex array,
        bit for bit: a canonical family's rows at its own sites (before the
        shift, clamped at 0 as ``factor_at`` clamps), any other callback's
        factors one ``factor_at`` call per site."""
        if self.closed_rows:
            return self.factor_fn.rows(lo - self.shift, hi - self.shift)
        factors = [self.factor_at(n) for n in range(lo, hi)]
        for n, f in enumerate(factors, lo):
            if f.dim != self.dim:
                raise ShapeMismatch(
                    f"tail factor at site {n} has dim {f.dim}, declared {self.dim}"
                )
        amplitudes = chain.from_iterable(f.amplitudes for f in factors)
        return np.fromiter(amplitudes, complex, (hi - lo) * self.dim).reshape(-1, self.dim)

    def shifted(self, sites: int) -> "ParametricTail":
        """This tail moved ``sites`` sites later, its declaration with it.
        The sites before the shift belong to a prefix; they read factor 0,
        so probes there stay valid."""
        return replace(self, shift=self.shift + sites, decay=self.decay.shifted(sites))

    def mapped(self, fn: Callable[[FactorVector], FactorVector], scale: float) -> "ParametricTail":
        """The tail of ``fn(factor)`` at every site, with the same shift.
        ``scale`` is the declared scale of the mapped factors' distances to
        ``fn(limit)``; the caller derives it from how far ``fn`` stretches."""
        inner, limit = self.factor_fn, fn(self.limit)
        return replace(
            self,
            dim=limit.dim,
            factor_fn=lambda n: fn(inner(n)),
            limit=limit,
            decay=replace(self.decay, scale=scale),
        )


@dataclass(frozen=True)
class _CanonicalFamily:
    """The factors of a serialized parametric tail: ``limit + w(n) *
    deviation`` with w(n) = ratio**n (geometric), (n + 1)**-p (p-series), or
    1 before rank and the limit itself from rank on (any other class), for
    n >= 0.  ``decay`` is the family's own declaration, before any shift.

    Before its rank an eventually-constant family returns one vector, built
    once, so a walk may bracket that stretch once; no other callback is
    trusted with a run before its declared rank.
    """

    limit: FactorVector
    deviation: tuple[complex, ...]
    decay: DecaySpec

    @cached_property
    def _moved(self) -> FactorVector:
        return self._weighted(1.0)

    def _weighted(self, weight: float) -> FactorVector:
        # complex * complex, not float * complex: CPython 3.14 multiplies a
        # float into a complex without the 0 * x terms, which moves zero signs
        w = complex(weight)
        return FactorVector(
            tuple(a + w * d for a, d in zip(self.limit.amplitudes, self.deviation))
        )

    def _weight(self, n: int) -> float | None:
        """w of site n >= 0, or None where the factor is the limit itself."""
        kind = self.decay.kind
        if kind == "geometric":
            return self.decay.ratio**n
        if kind == "p-series":
            return (n + 1) ** (-self.decay.p)
        return 1.0 if n < (self.decay.rank or 0) else None

    def __call__(self, n: int) -> FactorVector:
        weight = self._weight(n)
        if weight is None:
            return self.limit
        if self.decay.kind == "eventually-constant":
            return self._moved
        return self._weighted(weight)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The factors of sites [lo, hi) as one (hi - lo, dim) complex array,
        row k equal to ``self(max(lo + k, 0)).amplitudes`` bit for bit.
        Weights come from ``_weight`` in Python; w * deviation is formed as
        ``_weighted`` forms it, the complex product (w + 0j) * d, so even the
        signs of underflowed zeros agree.  A non-finite amplitude raises as
        ``FactorVector`` does, at the first one in site order."""
        weights = [self._weight(n if n > 0 else 0) for n in range(lo, hi)]
        w = np.array([0.0 if x is None else x for x in weights])[:, None]
        limit = np.array(self.limit.amplitudes, dtype=complex)
        dev = np.array(self.deviation, dtype=complex)
        out = np.empty((hi - lo, len(limit)), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # Python floats do not warn
            out.real = limit.real + (w * dev.real - 0.0 * dev.imag)
            out.imag = limit.imag + (w * dev.imag + 0.0 * dev.real)
        out[[x is None for x in weights]] = limit
        finite = np.isfinite(out)
        if not finite.all():
            raise InvalidAmplitude(f"non-finite amplitude {complex(out[~finite][0])!r}")
        return out


TailRule = Union[ConstantTail, ParametricTail]


# With u, w the bra and ket limits and d_a, d_b their declared distance
# bounds, |<bra_n|ket_n> - <u|w>| <= d_a(n) * (|w| + d_b(n)) + |u| * d_b(n).
def _bracket_bound(bra: TailRule, ket: TailRule, site: int) -> float:
    """Declared bound on how far the tail bracket at ``site`` is from its limit."""
    return bra.decay.bound(site) * (ket.limit.norm + ket.decay.bound(site)) + (
        bra.limit.norm * ket.decay.bound(site)
    )


def _bracket_series_bound(bra: TailRule, ket: TailRule, start: int) -> float:
    """Bound on the per-site bracket bounds summed over sites >= ``start``;
    each declared d_b(n) is at most its scale."""
    return (ket.limit.norm + ket.decay.scale) * bra.decay.series_bound(start) + (
        bra.limit.norm * ket.decay.series_bound(start)
    )


def _log_loss_bound(bra: TailRule, ket: TailRule, start: int) -> float:
    """Bound on sum_{n >= start} |log|<bra_n|ket_n>|| that the declarations
    certify, or inf: the limits must bracket to modulus 1 and both decays be
    summable, and |log x| <= 2|x - 1| once the terms sit above 1/2."""
    aligned = abs(abs(factor_overlap(bra.limit, ket.limit)) - 1.0) <= ALIGN_EXACT
    if not (aligned and bra.decay.summable and ket.decay.summable):
        return math.inf
    remaining = _bracket_series_bound(bra, ket, start)
    return 2.0 * remaining if remaining <= 0.25 else math.inf


@dataclass(frozen=True)
class ProductState:
    """A single elementary product over all factor spaces."""

    prefix: tuple[FactorVector, ...]
    tail: TailRule
    label: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", tuple(self.prefix))
        for f in self.prefix:
            if not isinstance(f, FactorVector):
                raise InvalidAmplitude("prefix entries must be FactorVector")
        if not isinstance(self.tail, (ConstantTail, ParametricTail)):
            raise UndeclaredTailClass(
                "state tail must be ConstantTail or ParametricTail"
            )

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    @property
    def tail_dim(self) -> int:
        return self.tail.dim

    def dim_at(self, site: int) -> int:
        if site < len(self.prefix):
            return self.prefix[site].dim
        return self.tail.dim

    def factor_at(self, site: int) -> FactorVector:
        if site < 0:
            raise IndexOutOfRange(f"negative site {site}")
        if site < len(self.prefix):
            return self.prefix[site]
        return self.tail.factor_at(site)

    @cached_property
    def dim_runs(self) -> tuple[tuple[int, int], ...]:
        """(end, dim) of each maximal run of prefix sites sharing one dim, in
        site order: a run starts at site 0 or where the one before it ends."""
        return _dim_runs(f.dim for f in self.prefix)

    @cached_property
    def stacked(self) -> tuple[np.ndarray, ...]:
        """The explicit prefix as one read-only (sites, dim) complex array
        per run of ``dim_runs``.  Built on first use and kept for the life of
        the state, at 16 bytes per amplitude; not pickled."""
        runs, start = [], 0
        for end, dim in self.dim_runs:
            amplitudes = chain.from_iterable(f.amplitudes for f in self.prefix[start:end])
            flat = np.fromiter(amplitudes, complex, (end - start) * dim)
            flat.setflags(write=False)
            runs.append(flat.reshape(-1, dim))
            start = end
        return tuple(runs)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The factors of sites [lo, hi), which share one dim, as one (hi -
        lo, dim) complex array, bit for bit: a read-only view of the stacked
        prefix, then the tail's rows."""
        p = len(self.prefix)
        if lo >= p:
            return self.tail.rows(lo, hi)
        k = bisect_right(self.dim_runs, lo, key=itemgetter(0))
        start = self.dim_runs[k - 1][0] if k else 0
        view = self.stacked[k][lo - start : hi - start]
        return view if hi <= p else np.concatenate([view, self.tail.rows(p, hi)])

    @property
    def run_starts(self) -> tuple[int, ...]:
        """Sites from which the factors stay one vector, each up to the next
        start, the last for good; empty when no such site is known.

        A tail declared eventually-constant (a constant tail is one, of rank
        0) repeats its limit from its rank on; the declaration says nothing
        about the sites before.  A canonical family computes its own factors,
        so it also answers for the stretch between the prefix and its rank,
        moved with its tail; a family of rank 0 is the limit from the prefix
        on."""
        p, tail = len(self.prefix), self.tail
        family = getattr(tail, "factor_fn", None)
        if isinstance(family, _CanonicalFamily) and family.decay.kind == "eventually-constant":
            rank = family.decay.rank + tail.shift if family.decay.rank else 0
            return tuple(sorted({p, max(p, rank)}))
        if tail.decay.kind == "eventually-constant":
            return (max(p, tail.decay.rank),)
        return ()

    def __getstate__(self) -> dict:
        # the cached views are rebuilt on demand, so pickles stay the same
        cached = ("dim_runs", "stacked", "sequence_class")
        return {k: v for k, v in self.__dict__.items() if k not in cached}

    def as_composite(self, coefficient: complex = 1.0 + 0j) -> "CompositeState":
        return CompositeState(((complex(coefficient), self),))

    @cached_property
    def sequence_class(self):
        """``sectors.classify_sequence`` of this state, computed on first use
        and kept for the life of the state; not pickled."""
        from . import sectors

        return sectors.classify_sequence(self)


@dataclass(frozen=True)
class CompositeState:
    """Finite linear combination of same-shaped product states."""

    terms: tuple[tuple[complex, ProductState], ...]

    def __post_init__(self) -> None:
        terms = tuple((complex(c), s) for c, s in self.terms)
        if not terms:
            raise InvalidAmplitude("composite state needs at least one term")
        for c, s in terms:
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise InvalidAmplitude(f"non-finite coefficient {c!r}")
            if not isinstance(s, ProductState):
                raise InvalidAmplitude("composite terms must hold ProductState")
        first = terms[0][1]
        for _, s in terms[1:]:
            ensure_same_shape(first, s)
        object.__setattr__(self, "terms", terms)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def scaled(self, factor: complex) -> "CompositeState":
        return CompositeState(tuple((factor * c, s) for c, s in self.terms))


def make_product_state(
    prefix: Sequence[FactorVector | Sequence[complex]],
    tail: TailRule,
    label: str | None = None,
) -> ProductState:
    """Build a validated product state; raw amplitude sequences are coerced."""
    factors = tuple(
        f if isinstance(f, FactorVector) else FactorVector(tuple(f)) for f in prefix
    )
    return ProductState(prefix=factors, tail=tail, label=label)


def shapes_match(a: ProductState | CompositeState, b: ProductState | CompositeState) -> bool:
    try:
        ensure_same_shape(a, b)
    except ShapeMismatch:
        return False
    return True


def ensure_same_shape(
    a: ProductState | CompositeState, b: ProductState | CompositeState
) -> None:
    """Raise ShapeMismatch unless dims agree position-by-position."""
    a_states = [s for _, s in a.terms] if isinstance(a, CompositeState) else [a]
    b_states = [s for _, s in b.terms] if isinstance(b, CompositeState) else [b]
    sa, sb = a_states[0], b_states[0]
    mismatch = _first_dim_mismatch(sa.dim_runs, sa.tail_dim, sb.dim_runs, sb.tail_dim)
    if mismatch is None:
        return
    site, dim_a, dim_b = mismatch
    if site < max(s.prefix_len for s in a_states + b_states):
        raise ShapeMismatch(f"dim {dim_a} vs {dim_b} at site {site}")
    raise ShapeMismatch(f"tail dims differ: {sa.tail_dim} vs {sb.tail_dim}")


def _dim_runs(dims: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """(end, dim) of each maximal run of equal dims, ends counted from 0."""
    runs, end = [], 0
    for dim, run in groupby(dims):
        end += sum(1 for _ in run)
        runs.append((end, dim))
    return tuple(runs)


def _first_dim_mismatch(
    a_runs: Sequence[tuple[int, int]], a_tail: int,
    b_runs: Sequence[tuple[int, int]], b_tail: int,
) -> tuple[int, int, int] | None:
    """(site, dim in a, dim in b) at the first site where two shapes differ,
    or None.  A shape is its (end, dim) runs, then its tail dim forever."""
    a = [*a_runs, (math.inf, a_tail)]
    b = [*b_runs, (math.inf, b_tail)]
    i = j = site = 0
    while site < math.inf:
        (end_a, dim_a), (end_b, dim_b) = a[i], b[j]
        if dim_a != dim_b:
            return site, dim_a, dim_b
        site = min(end_a, end_b)
        i += end_a == site
        j += end_b == site
    return None


def _prefix_brackets(a: ProductState, b: ProductState, span: int) -> list[complex]:
    """``factor_overlap`` of two same-shaped states' factors at each site
    below ``span``, bit for bit.  A span longer than STACK_MIN sites is read
    off both states' rows, one dim run of ``a`` at a time; a shorter one goes
    one site at a time."""
    if span <= STACK_MIN:
        return [factor_overlap(a.factor_at(k), b.factor_at(k)) for k in range(span)]
    out: list[complex] = []
    start = 0
    for end in [end for end, _ in a.dim_runs if end < span] + [span]:
        rows = (s.rows(start, end)[None] for s in (a, b))
        out += _stacked_brackets(*rows)[0, 0].tolist()
        start = end
    return out


def distance(
    a: ProductState | CompositeState,
    b: ProductState | CompositeState,
    truncation: int,
) -> float:
    """<A-B|A-B> at the given truncation, from one walk over the terms of
    both states.  A bracket does not depend on where its pair sits in the
    stack, so distance(a, b) equals distance(b, a) bit for bit and
    distance(a, a) is exactly 0.
    """
    from .overlaps import _Terms, _walk

    ca = a.as_composite() if isinstance(a, ProductState) else a
    cb = b.as_composite() if isinstance(b, ProductState) else b
    ensure_same_shape(ca, cb)
    if truncation < 0:
        raise PreconditionViolated(f"truncation {truncation} must be >= 0")
    terms = ca.terms + cb.terms
    first, second = range(len(ca.terms)), range(len(ca.terms), len(terms))
    readouts = [
        [(terms[m][0].conjugate() * terms[n][0], m, n) for m in bras for n in kets]
        for bras, kets in ((first, first), (second, second), (first, second), (second, first))
    ]
    side = _Terms([s for _, s in terms])
    (aa,), (bb,), (ab,), (ba,) = _walk(side, side, readouts, [truncation])
    return ((aa[0] + bb[0]) - (ab[0] + ba[0])).real
