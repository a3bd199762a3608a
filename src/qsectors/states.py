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

import cmath
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import chain, groupby
from numbers import Real
from operator import add, index, itemgetter, mul
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

# Stretches of up to this many amplitudes of one state (sites x dim) are read
# in Python from ``tolist()``, as the vectors read them, where numpy's
# per-call cost is larger than the loop: their norms take 2-7 us against
# 6-12 us of numpy calls, and their brackets 3-11 us against 9-12 us for one
# einsum, which wins from about 16 amplitudes at dim 1 and 24-64 at dims
# 2-16 (timeit min; CPython 3.11, numpy 2.4, one core of a 2-vCPU VM).
ROW_LOOP_MAX = 24


def _integer(value: int, name: str) -> int:
    """``value`` as an int, read with ``operator.index``: ints and numpy
    integers pass, bools and anything else (floats among them) are refused
    as the argument ``name``."""
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise PreconditionViolated(f"{name} {value!r} is not an integer")


def _as_complex_tuple(values: Iterable[complex]) -> tuple[complex, ...]:
    out = []
    for v in values:
        c = complex(v)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise InvalidAmplitude(f"non-finite amplitude {c!r}")
        out.append(c)
    return tuple(out)


class _FieldState:
    """Pickles a dataclass's fields alone: a value cached beside them is
    recomputed on demand, and a ``_Prefix`` field travels as its objects."""

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class FactorVector(_FieldState):
    """One factor-space vector: a finite tuple of complex amplitudes.

    ``norm_sq`` is computed on first read and kept for the life of the
    vector; it is not pickled."""

    amplitudes: tuple[complex, ...]

    def __post_init__(self) -> None:
        # Two C-level passes convert and check the amplitudes.  Where either
        # fails, _as_complex_tuple goes through them one at a time, so the
        # error is the one of the first bad amplitude.  A generator is read
        # into a tuple first, so that it can be gone through twice.
        values = tuple(self.amplitudes)
        try:
            amps = tuple(map(complex, values))
        except (TypeError, ValueError, OverflowError):
            amps = None
        if amps is None or not all(map(cmath.isfinite, amps)):
            amps = _as_complex_tuple(values)
        if not amps:
            raise InvalidAmplitude("factor vector needs at least one amplitude")
        object.__setattr__(self, "amplitudes", amps)

    @cached_property
    def norm_sq(self) -> float:
        return _norm_sq(self.amplitudes)

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


def _norm_sq(amplitudes: Iterable[complex]) -> float:
    # added left to right on every Python version (3.12's float sum
    # compensates); _row_norms adds the columns of a block in this order
    norm_sq = 0.0
    for c in amplitudes:
        norm_sq += c.real * c.real + c.imag * c.imag
    return norm_sq


def basis_vector(dim: int, index: int) -> FactorVector:
    if not 0 <= index < dim:
        raise IndexOutOfRange(f"basis index {index} outside dim {dim}")
    return FactorVector((0j,) * index + (1.0 + 0j,) + (0j,) * (dim - index - 1))


def factor_overlap(bra: FactorVector, ket: FactorVector) -> complex:
    """<bra|ket> with the bra conjugated."""
    if bra.dim != ket.dim:
        raise ShapeMismatch(f"factor dims differ: {bra.dim} vs {ket.dim}")
    return sum(map(mul, map(complex.conjugate, bra.amplitudes), ket.amplitudes))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``FactorVector.norm`` of each row of a (sites, dim) complex array, bit
    for bit: the squared moduli are added one column at a time, left to
    right, as ``norm_sq`` adds them, and numpy's sqrt rounds as math.sqrt.
    A square past the float range is inf without a warning, as in Python."""
    with np.errstate(over="ignore"):
        squares = rows.real * rows.real + rows.imag * rows.imag
        norm_sq = squares[:, 0]
        for column in squares.T[1:]:
            norm_sq = norm_sq + column
    return np.sqrt(norm_sq)


def _check_finite(rows: np.ndarray) -> None:
    """Refuse a complex array with a non-finite amplitude, naming the first
    in row order as ``FactorVector`` names it."""
    finite = np.isfinite(rows)
    if not finite.all():
        raise InvalidAmplitude(f"non-finite amplitude {complex(rows[~finite][0])!r}")


def _stacked_brackets(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """(bra terms, ket terms, sites) brackets of two (terms, sites, dim)
    stacks of rows.  Each entry equals ``factor_overlap`` of its two rows bit
    for bit, since einsum adds a bracket's products in row order as the
    scalar sum does; test_stacked_brackets_match_factor_overlap_bits fails
    first if a numpy release changes that order."""
    return np.einsum("asi,bsi->abs", bra.conj(), ket)


def _paired_brackets(
    bra: np.ndarray, ket: np.ndarray, keys: Sequence[tuple[int, int]]
) -> np.ndarray:
    """(pairs, sites) brackets of the sorted, distinct (bra term, ket term)
    pairs in ``keys`` of two (terms, sites, dim) stacks of rows, in key
    order: one einsum per bra term, over its own ket terms alone, with that
    term's rows conjugated on their own (which timed faster than
    conjugating the whole stack first).  Each entry adds the products of
    ``_stacked_brackets`` in its order, so it keeps ``factor_overlap``'s
    bits; test_stacked_brackets_match_factor_overlap_bits checks both."""
    out = []
    for a, pairs in groupby(keys, key=itemgetter(0)):
        kets = [b for _, b in pairs]
        if kets[-1] - kets[0] == len(kets) - 1:  # consecutive: a view, not a copy
            kets = slice(kets[0], kets[-1] + 1)
        out.append(np.einsum("si,bsi->bs", bra[a].conj(), ket[kets]))
    return np.concatenate(out)


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
        if self.kind == "geometric" and self.ratio == 0.0:
            # ratio 0 bounds only the first factor; every later one is the limit
            return DecaySpec("eventually-constant", rank=sites + 1, scale=self.scale)
        try:
            if self.kind == "p-series":
                # (n - sites + 1)**-p <= (sites + 1)**p * (n + 1)**-p for n >= sites
                scale = self.scale * (sites + 1) ** self.p
            else:
                scale = self.scale / self.ratio**sites
        except (OverflowError, ZeroDivisionError):  # a power past the float range
            scale = math.nan
        if not math.isfinite(scale):
            raise UndeclaredTailClass(
                f"decay scale shifted {sites} sites lies outside the float range"
            )
        return replace(self, scale=scale)

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

    Geometric and p-series weights come from one ``np.power`` call
    (``_powers``) per block of sites, or per one-element list for a single
    factor, so ``rows`` and ``__call__`` agree bit for bit; numpy's power
    need not round as Python's ``**`` does, and its bits depend on the CPU.

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
        return FactorVector(tuple(map(add, self.limit.amplitudes, map(w.__mul__, self.deviation))))

    def _powers(self, x: Sequence[float] | np.ndarray) -> np.ndarray:
        """ratio**x (geometric) or x**-p (p-series) at each float x, a site n
        or, for a p-series, n + 1.  A 0-d call rounds otherwise than an
        array call, so a single factor passes a one-element list."""
        if self.decay.kind == "geometric":
            return np.power(self.decay.ratio, x)
        return np.power(x, -self.decay.p)

    def __call__(self, n: int) -> FactorVector:
        kind = self.decay.kind
        if kind in ("geometric", "p-series"):
            return self._weighted(self._powers([n + 1.0 if kind == "p-series" else float(n)])[0])
        return self._moved if n < (self.decay.rank or 0) else self.limit

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The factors of sites [lo, hi) as one (hi - lo, dim) complex array,
        row k bit for bit ``self(max(lo + k, 0)).amplitudes``: the weights
        from one ``_powers`` call, w * deviation formed in place as the
        complex product (w + 0j) * d of ``_weighted``, so even the signs of
        underflowed zeros agree.  A non-finite amplitude raises as
        ``FactorVector`` does, at the first one in site order."""
        sites = np.maximum(np.arange(lo, hi), 0)
        limit = np.array(self.limit.amplitudes, dtype=complex)
        out = np.empty((hi - lo, len(limit)), dtype=complex)
        kind = self.decay.kind
        if kind in ("geometric", "p-series"):
            w = self._powers(sites + 1.0 if kind == "p-series" else sites.astype(float))[:, None]
            dev, re, im = np.array(self.deviation, dtype=complex), out.real, out.imag
            with np.errstate(over="ignore", invalid="ignore"):  # Python floats do not warn
                np.multiply(w, dev.real, out=re)
                re -= 0.0 * dev.imag
                re += limit.real
                np.multiply(w, dev.imag, out=im)
                im += 0.0 * dev.real
                im += limit.imag
        else:
            out[:] = limit
            before = sites < (self.decay.rank or 0)
            if before.any():
                out[before] = self._moved.amplitudes
        _check_finite(out)
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


def _vector(amplitudes: tuple[complex, ...]) -> FactorVector:
    """A ``FactorVector`` of amplitudes read off a state's arrays, which hold
    only amplitudes already checked, so they are not gone through again."""
    v = object.__new__(FactorVector)
    v.__dict__["amplitudes"] = amplitudes
    return v


def _factor_rows(vectors: Sequence[Sequence[complex]]) -> list[np.ndarray]:
    """Factors given by their amplitudes as one (sites, dim) complex array
    per run of equal dims."""
    out, start = [], 0
    for end, dim in _dim_runs(map(len, vectors)):
        amplitudes = chain.from_iterable(vectors[start:end])
        out.append(np.fromiter(amplitudes, complex, (end - start) * dim).reshape(-1, dim))
        start = end
    return out


def _keep_rows(owner: object, rows: Iterable[np.ndarray], name: str = "prefix_rows") -> None:
    """Keep ``rows``, C-contiguous (sites, dim, ...) complex arrays in site
    order, as the explicit prefix of ``owner``, a state or an operator term,
    in its attribute ``name``: adjacent arrays of one dim joined, empty ones
    dropped, each made read-only; ``dim_runs`` and ``prefix_len`` with them."""
    runs: list[np.ndarray] = []
    for r in rows:
        if not len(r):
            continue
        if runs and runs[-1].shape[1] == r.shape[1]:
            runs[-1] = np.concatenate([runs[-1], r])
        else:
            runs.append(r)
    end, dim_runs = 0, []
    for run in runs:
        run.setflags(write=False)
        end += len(run)
        dim_runs.append((end, run.shape[1]))
    owner.__dict__.update({name: tuple(runs), "dim_runs": tuple(dim_runs), "prefix_len": end})


class _Prefix:
    """A dataclass field given as a tuple of ``kind`` objects and kept as its
    owner's arrays ``name`` (``_keep_rows``), which ``pack`` builds from the
    objects; each read builds the objects again, ``unpack`` of each array,
    with the same bits."""

    def __init__(self, kind: type, name: str, pack: Callable, unpack: Callable) -> None:
        self.kind, self.name, self.pack, self.unpack = kind, name, pack, unpack

    def __set_name__(self, owner: type, attr: str) -> None:
        self.attr = attr

    def __get__(self, obj: object | None, owner: type | None = None) -> tuple:
        if obj is None:  # the field has no default value
            raise AttributeError(self.attr)
        return tuple(chain.from_iterable(map(self.unpack, getattr(obj, self.name))))

    def __set__(self, obj: object, items: Iterable) -> None:
        items = tuple(items)
        if not all(isinstance(x, self.kind) for x in items):
            raise InvalidAmplitude(f"{self.attr} entries must be {self.kind.__name__}")
        _keep_rows(obj, self.pack(items), self.name)


@dataclass(frozen=True)
class ProductState(_FieldState):
    """A single elementary product over all factor spaces.

    The explicit prefix is given as ``FactorVector``s and kept as
    ``prefix_rows``, one read-only (sites, dim) complex array per run of
    ``dim_runs``, 16 bytes per amplitude; ``prefix`` and ``factor_at`` build
    vectors from them on demand.  Equality, hashes, repr and pickles are
    those of the ``prefix`` tuple.
    """

    # vectors built on each read: a complex128 holds a Python complex exactly
    prefix: tuple[FactorVector, ...] = _Prefix(
        FactorVector,
        "prefix_rows",
        lambda factors: _factor_rows([f.amplitudes for f in factors]),
        lambda rows: map(_vector, map(tuple, rows.tolist())),
    )
    tail: TailRule
    label: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.tail, (ConstantTail, ParametricTail)):
            raise UndeclaredTailClass(
                "state tail must be ConstantTail or ParametricTail"
            )

    @classmethod
    def _of_rows(
        cls, rows: Iterable[np.ndarray], tail: TailRule, label: str | None = None
    ) -> "ProductState":
        """A state whose explicit prefix is ``rows``, new C-contiguous
        (sites, dim) complex arrays in site order (``_keep_rows``) of finite
        amplitudes: values read off a state or a ``FactorVector``, or
        checked by ``_check_finite``, once per array."""
        state = object.__new__(cls)
        _keep_rows(state, rows)
        state.__dict__.update(tail=tail, label=label)
        state.__post_init__()
        return state

    @property
    def tail_dim(self) -> int:
        return self.tail.dim

    def dim_at(self, site: int) -> int:
        if site < self.prefix_len:
            if site < 0:
                raise IndexOutOfRange(f"negative site {site}")
            return self.dim_runs[_run_at(self.dim_runs, site)[0]][1]
        return self.tail.dim

    def factor_at(self, site: int) -> FactorVector:
        if site < 0:
            raise IndexOutOfRange(f"negative site {site}")
        if site < self.prefix_len:
            k, start = _run_at(self.dim_runs, site)
            return _vector(tuple(self.prefix_rows[k][site - start].tolist()))
        return self.tail.factor_at(site)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The factors of sites [lo, hi), which share one dim, as one (hi -
        lo, dim) complex array, bit for bit: a read-only view of the
        prefix's arrays, then the tail's rows."""
        p = self.prefix_len
        if lo >= p:
            return self.tail.rows(lo, hi)
        k, start = _run_at(self.dim_runs, lo)
        view = self.prefix_rows[k][lo - start : hi - start]
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
        p, tail = self.prefix_len, self.tail
        family = getattr(tail, "factor_fn", None)
        if isinstance(family, _CanonicalFamily) and family.decay.kind == "eventually-constant":
            rank = family.decay.rank + tail.shift if family.decay.rank else 0
            return tuple(sorted({p, max(p, rank)}))
        if tail.decay.kind == "eventually-constant":
            return (max(p, tail.decay.rank),)
        return ()

    def as_composite(self, coefficient: complex = 1.0 + 0j) -> "CompositeState":
        return CompositeState(((complex(coefficient), self),))

    @cached_property
    def sequence_class(self):
        """``sectors.classify_sequence`` of this state, computed on first use
        and kept for the life of the state; not pickled."""
        from . import sectors

        return sectors.classify_sequence(self)


def _prefix_norms(state: ProductState) -> list[float]:
    """``FactorVector.norm`` of each explicit factor of ``state`` in site
    order, bit for bit: ``_row_norms`` of a run, or the vectors' own loop
    over a run of at most ROW_LOOP_MAX amplitudes."""
    norms: list[float] = []
    for rows in state.prefix_rows:
        if rows.size <= ROW_LOOP_MAX:
            norms += [math.sqrt(_norm_sq(row)) for row in rows.tolist()]
        else:
            norms += _row_norms(rows).tolist()
    return norms


def _spans(state: ProductState, stop: int) -> list[tuple[int, int]]:
    """(lo, hi) of each maximal stretch of the sites below ``stop`` that
    share one dim, as ``rows`` reads them, across the prefix end too."""
    tail_run = (state.prefix_len, state.tail.dim)  # a last run that the tail continues
    ends = [end for end, dim in state.dim_runs if end < stop and (end, dim) != tail_run]
    return [(lo, hi) for lo, hi in zip([0] + ends, ends + [stop]) if lo < hi]


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
        end += len(list(run))
        runs.append((end, dim))
    return tuple(runs)


def _run_at(runs: Sequence[tuple[int, int]], site: int) -> tuple[int, int]:
    """(index, start) of the run of ``runs`` (``_dim_runs``) that holds
    ``site``."""
    k = bisect_right(runs, site, key=itemgetter(0))
    return k, runs[k - 1][0] if k else 0


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


def _row_lists(state: ProductState, lo: int, hi: int) -> list:
    """The amplitudes of the factors at sites [lo, hi) as Python complex, read
    as the vectors hold them: the prefix's rows by ``tolist()``, tail factors
    one ``factor_at`` at a time."""
    out, start = [], 0
    for (end, _), run in zip(state.dim_runs, state.prefix_rows):
        if lo < end and start < hi:
            out += run[max(lo - start, 0) : hi - start].tolist()
        start = end
    return out + [state.tail.factor_at(k).amplitudes for k in range(max(lo, start), hi)]


def _listed_brackets(a: ProductState, b: ProductState, lo: int, hi: int) -> list[complex]:
    """``factor_overlap`` of the factors at sites [lo, hi), bracketed from
    ``_row_lists`` as it brackets vectors."""
    pairs = zip(_row_lists(a, lo, hi), _row_lists(b, lo, hi))
    return [sum(map(mul, map(complex.conjugate, x), y)) for x, y in pairs]


def _prefix_brackets(a: ProductState, b: ProductState, span: int) -> list[complex]:
    """``factor_overlap`` of two same-shaped states' factors at each site
    below ``span``, bit for bit.  A stretch of one dim (``_spans``) of more
    than ROW_LOOP_MAX amplitudes is read off both states' rows in one
    einsum; every other site is bracketed from Python lists
    (``_listed_brackets``)."""
    out: list[complex] = []  # one bracket a site from site 0
    for lo, hi in _spans(a, span):
        if (hi - lo) * a.dim_at(lo) > ROW_LOOP_MAX:
            out += _listed_brackets(a, b, len(out), lo)
            rows = (s.rows(lo, hi)[None] for s in (a, b))
            out += _stacked_brackets(*rows)[0, 0].tolist()
    return out + _listed_brackets(a, b, len(out), span)


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
    truncation = _integer(truncation, "truncation")
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
