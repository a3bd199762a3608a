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
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .errors import (
    InvalidAmplitude,
    NotQuasiConvergent,
    PreconditionViolated,
    UndeclaredTailClass,
)
from .states import ALIGN_EXACT

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

TAIL_CLASSES = (
    "eventually-one",
    "geometric-modulus",
    "p-series-log-modulus",
    "bounded-nonsummable-argument",
    "custom",
)


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
        if self.klass == "geometric-modulus":
            if self.ratio is None or not 0.0 <= self.ratio < 1.0:
                raise UndeclaredTailClass("geometric-modulus needs 0 <= ratio < 1")
        if self.klass == "p-series-log-modulus":
            if self.p is None or self.p <= 0.0:
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
        return _coerce_term(self.tail.term_fn(n), f"at term {n}")

    def modulus_spec(self) -> "ComplexSequenceSpec":
        """The sequence of term moduli, with the declared class carried over
        where the modulus inherits it (otherwise downgraded to custom)."""
        prefix = tuple(abs(z) + 0j for z in self.prefix)
        t = self.tail
        if isinstance(t, ConstantValue):
            return ComplexSequenceSpec(prefix, ConstantValue(abs(t.value) + 0j))
        keep = {"eventually-one", "geometric-modulus", "p-series-log-modulus"}
        klass = t.klass if t.klass in keep else "custom"
        fn = t.term_fn
        return ComplexSequenceSpec(
            prefix,
            ClosedFormTail(
                term_fn=lambda n: abs(fn(n)) + 0j, klass=klass, ratio=t.ratio, p=t.p
            ),
        )


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


def _converges(value: complex, diag: ProductDiagnostics) -> ConvergenceVerdict:
    return ConvergenceVerdict("ConvergesTo", complex(value), diag)


class _Accumulator:
    """Running complex product, kept both directly and as log-modulus plus
    unwrapped argument.

    Overlap readouts use the direct product up to ``overlaps.DIRECT_LIMIT``
    terms and the log form past it, where the direct product may underflow;
    the classifiers read the log form.  A zero term pins the product at 0.
    """

    __slots__ = ("direct", "log_mod", "arg", "zero")

    def __init__(self) -> None:
        self.direct = 1.0 + 0j
        self.log_mod = 0.0
        self.arg = 0.0
        self.zero = False

    def push(self, z: complex) -> None:
        if self.zero:
            return
        if z == 0:
            self.zero = True
            return
        self.direct *= z
        self.log_mod += math.log(abs(z))
        self.arg += math.atan2(z.imag, z.real)

    def push_logs(self, log_mod: float, arg: float, zero: bool) -> None:
        """Fold in a run of terms by their summed log-moduli and arguments
        and whether any was exactly 0.  ``direct`` is left behind, so only
        the log form reads the product afterwards."""
        self.zero = self.zero or zero
        self.log_mod += log_mod
        self.arg += arg

    def value(self) -> complex:
        """exp of the log form."""
        if self.zero:
            return 0j
        # clamp so diagnostic samples of divergent runs cannot overflow exp
        return cmath.exp(complex(min(self.log_mod, 700.0), self.arg))


def _zero_product(n: int, where: str = "tail") -> ConvergenceVerdict:
    """Verdict for a product cut to 0 by a zero term among the first ``n``."""
    return _converges(
        0j,
        ProductDiagnostics(
            samples=((n, 0j),),
            log_modulus_sum=-math.inf,
            terms_examined=n,
            notes=(f"zero {where} term short-circuits the product",),
        ),
    )


def _prefix_accumulator(seq: ComplexSequenceSpec) -> _Accumulator:
    acc = _Accumulator()
    for z in seq.prefix:
        acc.push(z)
    return acc


def classify_product(
    seq: ComplexSequenceSpec,
    budget: int = 100_000,
    tol: float = 1e-10,
    require_exact: bool = False,
) -> ConvergenceVerdict:
    """Decide convergence of the infinite product of ``seq``.

    ``budget`` caps the total number of terms ever evaluated and ``tol`` is
    the numeric stabilization tolerance.  With ``require_exact`` a custom
    tail raises instead of returning a numeric verdict.
    """
    if budget < len(seq.prefix) + 1:
        raise PreconditionViolated(
            f"budget {budget} cannot cover the prefix of {len(seq.prefix)} terms"
        )
    if not (tol > 0.0 and math.isfinite(tol)):
        raise PreconditionViolated("tol must be a positive finite number")

    acc = _prefix_accumulator(seq)
    notes: list[str] = []
    if acc.zero:
        return _zero_product(len(seq.prefix), "prefix")
    prefix_prod = acc.direct
    if prefix_prod == 0 or not cmath.isfinite(prefix_prod):
        # the direct product under- or overflowed; the log form did not
        prefix_prod = acc.value()

    tail = seq.tail
    if isinstance(tail, ConstantValue):
        return _classify_constant_tail(seq, prefix_prod, acc, notes)

    if tail.klass == "custom" and require_exact:
        raise UndeclaredTailClass(
            "custom tail has no declared class; exact verdict unavailable"
        )

    start = len(seq.prefix) + 1
    if tail.klass == "eventually-one":
        return _classify_eventually_one(seq, prefix_prod, acc, start, budget)
    if tail.klass == "geometric-modulus":
        return _classify_geometric(seq, prefix_prod, acc, start, budget, tol)
    if tail.klass == "p-series-log-modulus":
        return _classify_p_series(seq, prefix_prod, acc, start, budget, tol)
    if tail.klass == "bounded-nonsummable-argument":
        return _classify_declared_quasi(seq, acc, start, budget)
    return _classify_numeric(seq, prefix_prod, acc, start, budget, tol)


def _classify_constant_tail(
    seq: ComplexSequenceSpec,
    prefix_prod: complex,
    acc: _Accumulator,
    notes: list[str],
) -> ConvergenceVerdict:
    z = seq.tail.value
    n0 = len(seq.prefix)
    if z == 0:
        return _zero_product(n0 + 1)
    mod_dev = abs(z) - 1.0
    arg = math.atan2(z.imag, z.real)
    diag = ProductDiagnostics(
        samples=((n0, prefix_prod), (n0 + 1, prefix_prod * z)),
        log_modulus_sum=acc.log_mod,
        argument_drift=abs(arg),
        terms_examined=n0 + 1,
        notes=tuple(notes),
    )
    if abs(mod_dev) <= ALIGN_EXACT:
        if abs(arg) <= ALIGN_EXACT:
            return _converges(prefix_prod, diag)
        return ConvergenceVerdict("QuasiConvergesToZero", 0j, diag)
    if mod_dev < 0.0:
        return _converges(0j, diag)
    return ConvergenceVerdict("Diverges", None, diag)


def _iter_tail(seq: ComplexSequenceSpec, start: int, stop: int) -> Iterable[tuple[int, complex]]:
    for n in range(start, stop + 1):
        yield n, seq.term_at(n)


def _classify_eventually_one(
    seq: ComplexSequenceSpec,
    prefix_prod: complex,
    acc: _Accumulator,
    start: int,
    budget: int,
) -> ConvergenceVerdict:
    needed_ones = 16
    run = 0
    prod = prefix_prod
    samples = [(start - 1, prod)]
    last_n = start - 1
    for n, z in _iter_tail(seq, start, budget):
        last_n = n
        acc.push(z)
        if z == 1:
            run += 1
            if run >= needed_ones:
                break
            continue
        run = 0
        if z == 0:
            return _zero_product(n)
        prod *= z
    samples.append((last_n, prod))
    diag = ProductDiagnostics(
        samples=tuple(samples),
        log_modulus_sum=acc.log_mod,
        argument_drift=acc.arg,
        terms_examined=last_n,
    )
    if run >= needed_ones:
        return _converges(prod, diag)
    return ConvergenceVerdict(
        "Inconclusive",
        None,
        ProductDiagnostics(
            samples=tuple(samples),
            log_modulus_sum=acc.log_mod,
            argument_drift=acc.arg,
            terms_examined=last_n,
            notes=("declared eventually-one but terms kept differing within budget",),
        ),
    )


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
    last_n = start - 1
    for n, z in _iter_tail(seq, start, budget):
        last_n = n
        if z == 0:
            return _zero_product(n)
        acc.push(z)
        ell = cmath.log(z)
        log_sum += ell
        if ratio > 0.0:
            coeff = max(coeff, abs(ell) / ratio**n)
            remaining = coeff * ratio ** (n + 1) / (1.0 - ratio)
        else:
            remaining = 0.0
        if remaining < tol:
            break
    value = prefix_prod * cmath.exp(log_sum)
    return _converges(
        value,
        ProductDiagnostics(
            samples=((start - 1, prefix_prod), (last_n, value)),
            log_modulus_sum=acc.log_mod,
            argument_drift=acc.arg,
            terms_examined=last_n,
            notes=(f"geometric log-modulus tail bound below {tol:g}",),
        ),
    )


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
    window: list[complex] = []
    last_n = start - 1
    for n, z in _iter_tail(seq, start, budget):
        last_n = n
        if z == 0:
            return _zero_product(n)
        acc.push(z)
        ell = cmath.log(z)
        log_sum += ell
        window.append(ell * (n**p))
        if len(window) > 8:
            window.pop(0)
        if p > 1.0 and n >= start + 32:
            c_mag = max(abs(w) for w in window)
            if c_mag * n ** (1.0 - p) / (p - 1.0) < tol:
                break

    c_est = sum(window) / len(window) if window else 0j
    if p > 1.0:
        # midpoint integral correction for the unevaluated tail
        correction = c_est * (last_n + 0.5) ** (1.0 - p) / (p - 1.0)
        value = prefix_prod * cmath.exp(log_sum + correction)
        return _converges(
            value,
            ProductDiagnostics(
                samples=((start - 1, prefix_prod), (last_n, value)),
                log_modulus_sum=acc.log_mod + correction.real,
                argument_drift=acc.arg + correction.imag,
                terms_examined=last_n,
                notes=(f"p-series tail corrected by {abs(correction):.3e}",),
            ),
        )

    # p <= 1: the log series diverges unless its coefficient vanishes
    tiny = max(tol, 1e-9)
    diag = ProductDiagnostics(
        samples=((last_n, prefix_prod * cmath.exp(log_sum)),),
        log_modulus_sum=acc.log_mod,
        argument_drift=acc.arg,
        terms_examined=last_n,
        notes=(f"p={p:g} <= 1: log terms scale like c/n^p with c ~ {c_est:.3e}",),
    )
    if c_est.real > tiny:
        return ConvergenceVerdict("Diverges", None, diag)
    if c_est.real < -tiny:
        return _converges(0j, diag)
    if abs(c_est.imag) > tiny:
        return ConvergenceVerdict("QuasiConvergesToZero", 0j, diag)
    return _classify_numeric(seq, prefix_prod, _prefix_accumulator(seq), start, budget, tol)


def _classify_declared_quasi(
    seq: ComplexSequenceSpec, acc: _Accumulator, start: int, budget: int
) -> ConvergenceVerdict:
    probe = min(budget, start + 9_999)
    for n, z in _iter_tail(seq, start, probe):
        if z == 0:
            return _zero_product(n)
        acc.push(z)
    return ConvergenceVerdict(
        "QuasiConvergesToZero",
        0j,
        ProductDiagnostics(
            samples=((probe, acc.value()),),
            log_modulus_sum=acc.log_mod,
            argument_drift=acc.arg,
            terms_examined=probe,
            notes=(
                "declared bounded-nonsummable-argument: modulus product converges, "
                "argument sums are unbounded",
            ),
        ),
    )


def _classify_numeric(
    seq: ComplexSequenceSpec,
    prefix_prod: complex,
    acc: _Accumulator,
    start: int,
    budget: int,
    tol: float,
) -> ConvergenceVerdict:
    half_mark = start + (budget - start) // 2
    half_log = acc.log_mod
    half_arg = acc.arg
    samples: list[tuple[int, complex]] = [(start - 1, prefix_prod)]
    next_sample = max(start, 1)
    last_n = start - 1
    for n, z in _iter_tail(seq, start, budget):
        last_n = n
        if z == 0:
            return _zero_product(n)
        acc.push(z)
        if n == half_mark:
            half_log = acc.log_mod
            half_arg = acc.arg
        if n >= next_sample:
            samples.append((n, acc.value()))
            next_sample *= 2

    samples.append((last_n, acc.value()))
    drift = abs(acc.arg - half_arg)
    diag = ProductDiagnostics(
        samples=tuple(samples),
        log_modulus_sum=acc.log_mod,
        argument_drift=drift,
        terms_examined=last_n,
        notes=("numeric verdict from partial products",),
    )
    if acc.log_mod < -LOG_RUNAWAY and acc.log_mod < half_log - 1.0:
        return _converges(0j, diag)
    if acc.log_mod > LOG_RUNAWAY and acc.log_mod > half_log + 1.0:
        return ConvergenceVerdict("Diverges", None, diag)
    modulus_now = math.exp(min(acc.log_mod, LOG_RUNAWAY))
    modulus_half = math.exp(min(half_log, LOG_RUNAWAY))
    if abs(modulus_now - modulus_half) <= tol * max(1.0, modulus_now):
        if drift > QUASI_DRIFT:
            return ConvergenceVerdict("QuasiConvergesToZero", 0j, diag)
        if drift <= _ARG_STABLE:
            return _converges(acc.value(), diag)
    return ConvergenceVerdict("Inconclusive", None, diag)


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
