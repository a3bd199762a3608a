"""Classification of infinite products of complex numbers.

A product converges when its finite partial products settle on a single
value no matter how the finite index set is enlarged; a product whose
modulus settles on a nonzero value while the accumulated argument keeps
drifting is quasi-convergent and is assigned the value 0.

Sequences are described by a finite prefix plus a tail rule.  Structured
tails (constant values and declared closed-form classes) get exact
verdicts; undeclared ``custom`` tails get a numeric verdict from partial
products or an honest ``Inconclusive``.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .errors import (
    DimensionBudgetExceeded,
    InvalidAmplitude,
    NotQuasiConvergent,
    PreconditionViolated,
    UndeclaredTailClass,
)
from .states import ALIGN_EXACT, WALK_BUDGET, _check_declared

__all__ = [
    "ConstantValue",
    "ClosedFormTail",
    "ComplexSequenceSpec",
    "ProductDiagnostics",
    "ConvergenceVerdict",
    "classify_product",
    "quasi_convergence_value",
]

# Argument drift over the last half of the budget must exceed this before a
# numeric run is called quasi-convergent rather than inconclusive.
QUASI_DRIFT = 4.0 * math.pi
# Log-modulus sums beyond +/- this, still trending, count as 0 or divergence.
LOG_RUNAWAY = 50.0
_ARG_STABLE = 1e-8


def _coerce_term(value: complex, where: str) -> complex:
    c = complex(value)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise InvalidAmplitude(f"non-finite term {c!r} {where}")
    return c


@dataclass(frozen=True)
class ConstantValue:
    """Every tail term equals ``value``."""

    value: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _coerce_term(self.value, "in constant tail"))


@dataclass(frozen=True)
class ClosedFormTail:
    """Tail terms come from ``term_fn`` (1-based global term index).

    ``klass`` declares what the caller certifies about ``log term_fn(n)``:

    - ``eventually-one``: terms equal 1 beyond some finite rank.
    - ``geometric-modulus``: |log z_n| <= C * ratio**n with ratio < 1.
    - ``p-series-log-modulus``: log z_n behaves like c * n**(-p).
    - ``bounded-nonsummable-argument``: the moduli form a convergent nonzero
      product while the argument sums grow without bound.
    - ``custom``: nothing is certified; only numeric verdicts are possible.
    """

    term_fn: Callable[[int], complex]
    klass: str
    ratio: float | None = None
    p: float | None = None

    def __post_init__(self) -> None:
        if self.klass not in TAIL_CLASSES:
            raise UndeclaredTailClass(f"unknown tail class {self.klass!r}")
        _check_declared("tail", "ratio", self.ratio)
        _check_declared("tail", "p", self.p)
        if self.klass == "geometric-modulus":
            if self.ratio is None or not 0.0 <= self.ratio < 1.0:
                raise UndeclaredTailClass("geometric-modulus needs 0 <= ratio < 1")
        if self.klass == "p-series-log-modulus":
            if self.p is None or not self.p > 0.0:  # NaN too
                raise UndeclaredTailClass("p-series-log-modulus needs p > 0")


@dataclass(frozen=True)
class ComplexSequenceSpec:
    """Finite prefix plus a tail rule for an infinite complex sequence."""

    prefix: tuple[complex, ...] = ()
    tail: ConstantValue | ClosedFormTail = ConstantValue(1.0 + 0j)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "prefix",
            tuple(_coerce_term(z, f"at prefix index {i}") for i, z in enumerate(self.prefix)),
        )
        if not isinstance(self.tail, (ConstantValue, ClosedFormTail)):
            raise UndeclaredTailClass("tail must be ConstantValue or ClosedFormTail")

    def term_at(self, n: int) -> complex:
        """Term z_n, 1-based."""
        if n < 1:
            raise PreconditionViolated(f"term index {n} must be >= 1")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        if isinstance(self.tail, ConstantValue):
            return self.tail.value
        z = complex(self.tail.term_fn(n))
        if cmath.isfinite(z):
            return z
        return _coerce_term(z, f"at term {n}")  # raises; the text is built only here


@dataclass(frozen=True)
class ProductDiagnostics:
    """What the classifier looked at while reaching its verdict."""

    samples: tuple[tuple[int, complex], ...] = ()
    log_modulus_sum: float = 0.0
    argument_drift: float = 0.0
    terms_examined: int = 0
    notes: tuple[str, ...] = ()


_VERDICT_KINDS = ("ConvergesTo", "QuasiConvergesToZero", "Diverges", "Inconclusive")


@dataclass(frozen=True)
class ConvergenceVerdict:
    kind: str
    value: complex | None = None
    diagnostics: ProductDiagnostics = field(default_factory=ProductDiagnostics)

    def __post_init__(self) -> None:
        if self.kind not in _VERDICT_KINDS:
            raise PreconditionViolated(f"unknown verdict kind {self.kind!r}")
        if self.kind == "ConvergesTo" and self.value is None:
            raise PreconditionViolated("ConvergesTo requires a value")


def _scaled(count: int, step: float) -> float:
    """``count * step`` for a count >= 1, as IEEE rounds it.  A count past
    the float range is multiplied exactly, and a product that leaves the
    range too rounds to the infinity of ``step``'s sign."""
    try:
        return count * step
    except OverflowError:
        pass
    if not step or not math.isfinite(step):
        return step
    num, den = step.as_integer_ratio()
    try:
        return count * num / den
    except OverflowError:
        return math.copysign(math.inf, step)


class _Accumulator:
    """Running complex product, kept both directly and as log-modulus plus
    unwrapped argument.

    Overlap readouts use the direct product up to ``overlaps.DIRECT_LIMIT``
    terms and the log form past it, where the direct product may underflow;
    the classifiers read the log form.  A zero term pins the product at 0.
    """

    __slots__ = ("direct", "log_mod", "arg", "zero")

    def __init__(self, log_mod: float = 0.0, arg: float = 0.0, zero: bool = False) -> None:
        self.direct = 1.0 + 0j
        self.log_mod = log_mod
        self.arg = arg
        self.zero = zero

    def push(self, z: complex) -> None:
        self.push_direct(z)
        if not self.zero:
            self.log_mod += math.log(abs(z))
            self.arg += math.atan2(z.imag, z.real)

    def push_direct(self, z: complex) -> None:
        """``push`` for the direct product alone, for terms whose log form
        is folded in elsewhere."""
        if self.zero:
            return
        if z == 0:
            self.zero = True
            return
        self.direct *= z

    def repeated(self, z: complex, count: int) -> "_Accumulator":
        """A copy with ``count`` more terms ``z`` folded into the log form in
        one step, as ``_scaled`` count * log|z| and count * atan2(z).
        ``direct`` is left behind, so only the log form reads the copy.  A
        log modulus that leaves the float range below reads as the zero
        product; a modulus or argument that leaves it otherwise cannot be
        represented and is refused."""
        out = _Accumulator(self.log_mod, self.arg, self.zero)
        if count and not out.zero:
            if z == 0:
                out.zero = True
                return out
            out.log_mod += _scaled(count, math.log(abs(z)))
            if out.log_mod == -math.inf:
                out.zero = True
                return out
            out.arg += _scaled(count, math.atan2(z.imag, z.real))
            if not (math.isfinite(out.log_mod) and math.isfinite(out.arg)):
                raise DimensionBudgetExceeded(
                    f"bracket {z!r} repeated past the float range: the product's "
                    "modulus or phase cannot be represented",
                    bracket=z,
                )
        return out

    def value(self) -> complex:
        """exp of the log form."""
        if self.zero:
            return 0j
        # clamp so diagnostic samples of divergent runs cannot overflow exp
        return cmath.exp(complex(min(self.log_mod, 700.0), self.arg))


class _ZeroTerm(Exception):
    """Raised by ``_walk_tail`` at a zero term, whose index is ``args[0]``;
    ``classify_product`` answers it with ``_zero_product``."""


class _Broken(Exception):
    """Raised as ``_Broken(last_n, note)`` where the tail breaks its declared
    class; ``classify_product`` answers it with ``_broken``."""


def _verdict(
    kind: str,
    value: complex | None,
    acc: _Accumulator,
    last_n: int,
    samples: tuple[tuple[int, complex], ...],
    note: str | None = None,
    drift: float | None = None,
) -> ConvergenceVerdict:
    """A verdict reached after reading term ``last_n``.  Its diagnostics
    carry the log form of ``acc``, with ``drift`` in place of the argument
    when given."""
    return ConvergenceVerdict(
        kind,
        value,
        ProductDiagnostics(
            samples=samples,
            log_modulus_sum=acc.log_mod,
            argument_drift=acc.arg if drift is None else drift,
            terms_examined=last_n,
            notes=() if note is None else (note,),
        ),
    )


def _zero_product(n: int, where: str = "tail") -> ConvergenceVerdict:
    """Verdict for a product cut to 0 by a zero term among the first ``n``:
    its log modulus is -inf."""
    note = f"zero {where} term short-circuits the product"
    return _verdict("ConvergesTo", 0j, _Accumulator(-math.inf), n, ((n, 0j),), note)


def classify_product(
    seq: ComplexSequenceSpec,
    budget: int = 100_000,
    tol: float = 1e-10,
    require_exact: bool = False,
) -> ConvergenceVerdict:
    """Decide convergence of the infinite product of ``seq``.

    ``budget`` caps the total number of terms ever evaluated, at most
    ``WALK_BUDGET``, and ``tol`` is the numeric stabilization tolerance.
    With ``require_exact`` a custom tail raises instead of returning a
    numeric verdict.
    """
    if budget < len(seq.prefix) + 1:
        raise PreconditionViolated(
            f"budget {budget} cannot cover the prefix of {len(seq.prefix)} terms"
        )
    if budget > WALK_BUDGET:
        raise DimensionBudgetExceeded(
            f"a term budget of {budget} was requested; the cap is {WALK_BUDGET}",
            terms=budget,
            budget=WALK_BUDGET,
        )
    if not (tol > 0.0 and math.isfinite(tol)):
        raise PreconditionViolated("tol must be a positive finite number")

    acc = _Accumulator()
    for z in seq.prefix:
        acc.push(z)
    if acc.zero:
        return _zero_product(len(seq.prefix), "prefix")
    prefix_prod = acc.direct
    if prefix_prod == 0 or not cmath.isfinite(prefix_prod):
        # the direct product under- or overflowed; the log form did not
        prefix_prod = acc.value()

    tail = seq.tail
    if isinstance(tail, ConstantValue):
        return _classify_constant_tail(seq, prefix_prod, acc)
    if tail.klass == "custom" and require_exact:
        raise UndeclaredTailClass(
            "custom tail has no declared class; exact verdict unavailable"
        )
    classify = _CLASSIFIERS[tail.klass]
    start = len(seq.prefix) + 1
    try:
        return classify(seq, prefix_prod, acc, start, budget, tol)
    except _ZeroTerm as zero:
        return _zero_product(zero.args[0])
    except _Broken as broken:
        return _broken(acc, start, prefix_prod, *broken.args)


def _classify_constant_tail(
    seq: ComplexSequenceSpec,
    prefix_prod: complex,
    acc: _Accumulator,
) -> ConvergenceVerdict:
    z = seq.tail.value
    n0 = len(seq.prefix)
    if z == 0:
        return _zero_product(n0 + 1)
    mod_dev = abs(z) - 1.0
    arg = math.atan2(z.imag, z.real)
    if abs(mod_dev) > ALIGN_EXACT:
        kind, value = ("ConvergesTo", 0j) if mod_dev < 0.0 else ("Diverges", None)
    elif abs(arg) <= ALIGN_EXACT:
        kind, value = "ConvergesTo", prefix_prod
    else:
        kind, value = "QuasiConvergesToZero", 0j
    samples = ((n0, prefix_prod), (n0 + 1, prefix_prod * z))
    return _verdict(kind, value, acc, n0 + 1, samples, drift=abs(arg))


def _walk_tail(
    seq: ComplexSequenceSpec,
    acc: _Accumulator,
    start: int,
    stop: int,
    step: Callable[[int, complex], bool] | None = None,
) -> int:
    """Read the tail terms ``start..stop`` once each, straight from
    ``seq.tail.term_fn`` with ``term_at``'s checks, and fold each into the
    log form of ``acc`` with the float operations of ``_Accumulator.push``,
    in its order.

    The walk ends early after a term for which ``step(n, z)`` is true.  A
    non-finite term raises ``term_at``'s error, and a zero term raises
    ``_ZeroTerm``, so no classifier sees either.  The log form is written
    back also when ``step`` raises, so it holds every term folded in.  Only
    the log form is kept: ``acc.direct`` still holds the prefix product and
    ``acc.zero`` stays false.  Returns the last term index read."""
    term_fn = seq.tail.term_fn
    log, atan2, isfinite = math.log, math.atan2, cmath.isfinite
    log_mod, arg = acc.log_mod, acc.arg
    n = start - 1
    try:
        for n in range(start, stop + 1):
            z = complex(term_fn(n))
            if not isfinite(z):
                _coerce_term(z, f"at term {n}")  # raises
            if z == 0:
                raise _ZeroTerm(n)
            log_mod += log(abs(z))
            arg += atan2(z.imag, z.real)
            if step is not None and step(n, z):
                break
    finally:
        acc.log_mod, acc.arg = log_mod, arg
    return n


def _walk_read(
    seq: ComplexSequenceSpec,
    prefix_prod: complex,
    acc: _Accumulator,
    start: int,
    budget: int,
    step: Callable[[int, complex], bool] | None = None,
) -> tuple[tuple[float, float], list[tuple[int, complex]]]:
    """``_walk_tail`` over terms ``start..budget`` in stretches that end at
    the half mark and at the sample counts max(start, 1), twice that, and so
    on; ``step`` may raise but must not end the walk.  Returns what
    ``_numeric_verdict`` reads: the log form of ``acc`` after the half mark,
    and the samples ``(n, value)`` after ``(start - 1, prefix_prod)``."""
    half_mark = start + (budget - start) // 2
    sample_marks = []
    mark = max(start, 1)
    while mark <= budget:
        sample_marks.append(mark)
        mark *= 2
    samples = [(start - 1, prefix_prod)]
    n = start
    for mark in sorted({half_mark, *sample_marks}):
        _walk_tail(seq, acc, n, mark, step)
        n = mark + 1
        if mark == half_mark:
            half = (acc.log_mod, acc.arg)
        if mark in sample_marks:
            samples.append((mark, acc.value()))
    _walk_tail(seq, acc, n, budget, step)
    return half, samples


def _declared_value(prefix_prod: complex, log_sum: complex) -> complex | None:
    """``prefix_prod * exp(log_sum)``, or None where the exp overflows: a
    log sum that large breaks the declared class, whose logs are summable."""
    try:
        return prefix_prod * cmath.exp(log_sum)
    except OverflowError:
        return None


def _broken(
    acc: _Accumulator, start: int, prefix_prod: complex, last_n: int, note: str
) -> ConvergenceVerdict:
    """Inconclusive verdict for a tail whose terms break its declared class;
    its sample is the walked product, through the clamped exp."""
    samples = ((start - 1, prefix_prod), (last_n, acc.value()))
    return _verdict("Inconclusive", None, acc, last_n, samples, note)


def _classify_eventually_one(
    seq: ComplexSequenceSpec,
    prefix_prod: complex,
    acc: _Accumulator,
    start: int,
    budget: int,
    tol: float,
) -> ConvergenceVerdict:
    needed_ones = 16
    run = 0
    prod = prefix_prod

    def step(n: int, z: complex) -> bool:
        nonlocal run, prod
        if z == 1:
            run += 1
            return run >= needed_ones
        run = 0
        prod *= z
        return False

    last_n = _walk_tail(seq, acc, start, budget, step)
    samples = ((start - 1, prefix_prod), (last_n, prod))
    if run >= needed_ones:
        return _verdict("ConvergesTo", prod, acc, last_n, samples)
    note = "declared eventually-one but terms kept differing within budget"
    return _verdict("Inconclusive", None, acc, last_n, samples, note)


def _classify_geometric(
    seq: ComplexSequenceSpec,
    prefix_prod: complex,
    acc: _Accumulator,
    start: int,
    budget: int,
    tol: float,
) -> ConvergenceVerdict:
    ratio = seq.tail.ratio
    log_sum = 0j
    coeff = 0.0

    def step(n: int, z: complex) -> bool:
        nonlocal log_sum, coeff
        ell = cmath.log(z)
        log_sum += ell
        if ratio > 0.0:
            bound = ratio**n
            if bound > 0.0:
                coeff = max(coeff, abs(ell) / bound)
            elif ell:
                # once ratio**n underflows, no finite C bounds a nonzero term
                note = "declared geometric but a log term stays nonzero past ratio**n underflow"
                raise _Broken(n, note)
            remaining = coeff * ratio ** (n + 1) / (1.0 - ratio)
        else:
            remaining = 0.0
        return remaining < tol

    last_n = _walk_tail(seq, acc, start, budget, step)
    value = _declared_value(prefix_prod, log_sum)
    if value is None:
        raise _Broken(last_n, "declared geometric but the log sum overflows")
    samples = ((start - 1, prefix_prod), (last_n, value))
    note = f"geometric log-modulus tail bound below {tol:g}"
    return _verdict("ConvergesTo", value, acc, last_n, samples, note)


def _first_power_overflow(p: float, start: int, stop: int) -> int:
    """The first n in ``start..stop`` at which ``n**p`` overflows, else
    ``stop + 1``.  ``n**p`` grows with n, so a bisection finds it."""

    def overflows(n: int) -> bool:
        try:
            n**p
        except OverflowError:
            return True
        return False

    if not overflows(stop):
        return stop + 1
    lo, hi = start, stop
    while lo < hi:
        mid = (lo + hi) // 2
        if overflows(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _classify_p_series(
    seq: ComplexSequenceSpec,
    prefix_prod: complex,
    acc: _Accumulator,
    start: int,
    budget: int,
    tol: float,
) -> ConvergenceVerdict:
    p = seq.tail.p
    log_sum = 0j
    # (n, log z_n) of the last 8 terms; the coefficients c_n = log z_n * n**p
    # of this window are built only where they are read
    recent: deque[tuple[int, complex]] = deque(maxlen=8)
    over = _first_power_overflow(p, start, budget)
    # The rule below stops when max|c_k| * n**(1 - p) / (p - 1) < tol over
    # the window.  The max is at least |c_n| = |log z_n| * n**p, so it can
    # stop only where |log z_n| * n < tol * (p - 1); the factor 2 covers the
    # rounding of both sides.  A bound that is not a normal float screens
    # nothing.
    limit = 2.0 * tol * (p - 1.0)
    if not limit >= sys.float_info.min:
        limit = math.inf
    check_from = start + 32 if p > 1.0 else budget + 1

    def coefficients() -> list[complex]:
        # once n**p overflows, only a zero log term gets this far
        return [ell * (k**p) if k < over else 0j for k, ell in recent]

    def step(n: int, z: complex) -> bool:
        nonlocal log_sum
        ell = cmath.log(z)
        log_sum += ell
        recent.append((n, ell))
        if n >= over and ell:
            # once n**p overflows, no finite c bounds a nonzero term
            raise _Broken(n, f"declared p={p:g} but a log term stays nonzero past n**p overflow")
        return (
            n >= check_from
            and abs(ell) * n < limit
            and max(abs(c) for c in coefficients()) * n ** (1.0 - p) / (p - 1.0) < tol
        )

    if p > 1.0:
        last_n = _walk_tail(seq, acc, start, budget, step)
    else:
        # a vanishing coefficient falls back on the numeric verdict
        last_n, readings = budget, _walk_read(seq, prefix_prod, acc, start, budget, step)
    window = coefficients()
    c_est = sum(window) / len(window) if window else 0j
    if p > 1.0:
        # midpoint integral correction for the unevaluated tail, folded into
        # the log form the diagnostics report
        correction = c_est * (last_n + 0.5) ** (1.0 - p) / (p - 1.0)
        value = _declared_value(prefix_prod, log_sum + correction)
        if value is None:
            raise _Broken(last_n, f"declared p={p:g} > 1 but the log sum overflows")
        acc.log_mod += correction.real
        acc.arg += correction.imag
        samples = ((start - 1, prefix_prod), (last_n, value))
        note = f"p-series tail corrected by {abs(correction):.3e}"
        return _verdict("ConvergesTo", value, acc, last_n, samples, note)

    # p <= 1: the log series diverges unless its coefficient vanishes
    tiny = max(tol, 1e-9)
    if c_est.real > tiny:
        kind, value = "Diverges", None
    elif c_est.real < -tiny:
        kind, value = "ConvergesTo", 0j
    elif abs(c_est.imag) > tiny:
        kind, value = "QuasiConvergesToZero", 0j
    else:
        return _numeric_verdict(acc, readings, last_n, tol)
    note = f"p={p:g} <= 1: log terms scale like c/n^p with c ~ {c_est:.3e}"
    sample = prefix_prod * _Accumulator(log_sum.real, log_sum.imag).value()
    return _verdict(kind, value, acc, last_n, ((last_n, sample),), note)


def _classify_declared_quasi(
    seq: ComplexSequenceSpec,
    prefix_prod: complex,
    acc: _Accumulator,
    start: int,
    budget: int,
    tol: float,
) -> ConvergenceVerdict:
    last_n = _walk_tail(seq, acc, start, min(budget, start + 9_999))
    note = (
        "declared bounded-nonsummable-argument: modulus product converges, "
        "argument sums are unbounded"
    )
    return _verdict("QuasiConvergesToZero", 0j, acc, last_n, ((last_n, acc.value()),), note)


def _classify_numeric(
    seq: ComplexSequenceSpec,
    prefix_prod: complex,
    acc: _Accumulator,
    start: int,
    budget: int,
    tol: float,
) -> ConvergenceVerdict:
    readings = _walk_read(seq, prefix_prod, acc, start, budget)
    return _numeric_verdict(acc, readings, budget, tol)


def _numeric_verdict(
    acc: _Accumulator, readings: tuple, last_n: int, tol: float
) -> ConvergenceVerdict:
    """Verdict from partial products walked up to term ``last_n``, with the
    ``_walk_read`` readings of that walk."""
    (half_log, half_arg), samples = readings
    samples = (*samples, (last_n, acc.value()))
    drift = abs(acc.arg - half_arg)
    kind, value = "Inconclusive", None
    if acc.log_mod < -LOG_RUNAWAY and acc.log_mod < half_log - 1.0:
        kind, value = "ConvergesTo", 0j
    elif acc.log_mod > LOG_RUNAWAY and acc.log_mod > half_log + 1.0:
        kind = "Diverges"
    else:
        modulus_now = math.exp(min(acc.log_mod, LOG_RUNAWAY))
        modulus_half = math.exp(min(half_log, LOG_RUNAWAY))
        if abs(modulus_now - modulus_half) <= tol * max(1.0, modulus_now):
            if drift > QUASI_DRIFT:
                kind, value = "QuasiConvergesToZero", 0j
            elif drift <= _ARG_STABLE:
                kind, value = "ConvergesTo", acc.value()
    note = "numeric verdict from partial products"
    return _verdict(kind, value, acc, last_n, samples, note, drift)


# The walked classifier of each tail class ``ClosedFormTail`` accepts.  Each
# is called as (seq, prefix_prod, acc, start, budget, tol), with the prefix
# folded into ``acc`` and its product in ``prefix_prod``; the tail starts at
# term ``start``.
_CLASSIFIERS: dict[str, Callable[..., ConvergenceVerdict]] = {
    "eventually-one": _classify_eventually_one,
    "geometric-modulus": _classify_geometric,
    "p-series-log-modulus": _classify_p_series,
    "bounded-nonsummable-argument": _classify_declared_quasi,
    "custom": _classify_numeric,
}
TAIL_CLASSES = tuple(_CLASSIFIERS)


def quasi_convergence_value(
    seq: ComplexSequenceSpec, budget: int = 100_000, tol: float = 1e-10
) -> complex:
    """Value of a quasi-convergent product: the limit when it converges,
    0 by convention when only the modulus settles."""
    verdict = classify_product(seq, budget=budget, tol=tol)
    if verdict.kind == "ConvergesTo":
        return verdict.value
    if verdict.kind == "QuasiConvergesToZero":
        return 0j
    raise NotQuasiConvergent(
        f"product is {verdict.kind}; no quasi-convergence value exists",
        verdict=verdict.kind,
    )
