"""Pointer measurements recorded in infinitely many device factors.

A measurement model pairs pointer amplitudes with one device branch per
outcome.  Branches must sit in pairwise different sectors, so truncated
off-diagonal matrix elements decay with the cutoff while diagonals stay
put; the horizon functions find the cutoff where the decay passes a
threshold, entirely in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import IndexOutOfRange, InvalidAmplitude, PreconditionViolated
from .overlaps import _Terms, _walk
from .sectors import classify_sequence, same_sector
from .states import (
    ALIGN_EXACT,
    ALIGN_GRAY,
    CompositeState,
    ConstantTail,
    ProductState,
    _tail_descriptor,
    basis_vector,
    ensure_same_shape,
    factor_overlap,
)

__all__ = [
    "MeasurementModel",
    "TruncatedDensityMatrix",
    "premeasurement_state",
    "truncated_density",
    "decoherence_horizon",
    "sample_outcome",
    "sample_outcomes",
    "collapse",
]

_HORIZON_CHECK_EVERY = 4096


@dataclass(frozen=True)
class MeasurementModel:
    """Pointer amplitudes plus one device branch state per outcome."""

    coefficients: tuple[complex, ...]
    branches: tuple[ProductState, ...]
    label: Optional[str] = None

    def __post_init__(self) -> None:
        coeffs = tuple(complex(c) for c in self.coefficients)
        branches = tuple(self.branches)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "branches", branches)
        if len(coeffs) < 2:
            raise PreconditionViolated("a measurement needs at least two outcomes")
        if len(coeffs) != len(branches):
            raise PreconditionViolated(
                f"{len(coeffs)} coefficients vs {len(branches)} branches"
            )
        for c in coeffs:
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise InvalidAmplitude(f"non-finite pointer amplitude {c!r}")
        total = sum(abs(c) ** 2 for c in coeffs)
        if abs(total - 1.0) > ALIGN_EXACT:
            raise InvalidAmplitude(
                f"pointer amplitudes must be normalized, got sum {total!r}"
            )
        for b in branches[1:]:
            ensure_same_shape(branches[0], b)
        for idx, b in enumerate(branches):
            limit, _ = _tail_descriptor(b.tail)
            bad = [f.norm for f in b.prefix if abs(f.norm - 1.0) > ALIGN_GRAY]
            if bad or abs(limit.norm - 1.0) > ALIGN_GRAY:
                raise PreconditionViolated(
                    f"branch {idx} has non-unit factors", norms=bad
                )
            cls = classify_sequence(b)
            if cls.kind != "NonTrivialConvergentSequence":
                raise PreconditionViolated(
                    f"branch {idx} classifies as {cls.kind}; "
                    "branches must be non-trivial convergent sequences"
                )
        for i in range(len(branches)):
            for j in range(i + 1, len(branches)):
                verdict = same_sector(branches[i], branches[j])
                if verdict.kind != "DifferentSector":
                    raise PreconditionViolated(
                        f"branches {i} and {j} are {verdict.kind}; "
                        "distinct outcomes need pairwise different sectors"
                    )

    @property
    def n_outcomes(self) -> int:
        return len(self.coefficients)

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(abs(c) ** 2 for c in self.coefficients)


def premeasurement_state(model: MeasurementModel) -> CompositeState:
    """Entangled system-plus-device state, system factor prepended at site 0."""
    m = model.n_outcomes
    terms = []
    for i, (coeff, branch) in enumerate(zip(model.coefficients, model.branches)):
        prefix = (basis_vector(m, i),) + branch.prefix
        terms.append((coeff, ProductState(prefix, branch.tail, label=branch.label)))
    return CompositeState(tuple(terms))


@dataclass(frozen=True, eq=False)
class TruncatedDensityMatrix:
    """Reduced pointer matrix after tracing out the first N device factors."""

    matrix: np.ndarray
    truncation: int

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise PreconditionViolated(f"density matrix must be square, got {m.shape}")
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if herm_dev > ALIGN_EXACT:
            raise PreconditionViolated(
                f"density matrix deviates from Hermiticity by {herm_dev:.3e}"
            )
        trace_dev = abs(complex(np.trace(m)) - 1.0)
        if trace_dev > ALIGN_EXACT:
            raise PreconditionViolated(
                f"density matrix trace off by {trace_dev:.3e}"
            )
        lowest = float(np.min(np.linalg.eigvalsh(m)))
        if lowest < -1e-10:
            raise PreconditionViolated(
                f"density matrix has eigenvalue {lowest:.3e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def coherence(self, i: int, j: int) -> float:
        """Modulus of the (i, j) off-diagonal element."""
        if i == j:
            raise PreconditionViolated("coherence is defined for distinct outcomes")
        return float(abs(self.matrix[i, j]))

    @property
    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def truncated_density(model: MeasurementModel, truncation: int) -> TruncatedDensityMatrix:
    """Pointer matrix with the first ``truncation`` device factors traced out.

    Diagonals are set to the exact outcome probabilities; off-diagonals are
    overlap products mirrored conjugate-symmetrically, so the result is
    Hermitian by construction rather than by rounding luck.  One walk
    brackets all branches, reading out the m(m-1)/2 pairs above the diagonal.
    """
    if truncation < 0:
        raise PreconditionViolated("truncation must be >= 0")
    m = model.n_outcomes
    rho = np.zeros((m, m), dtype=complex)
    for i in range(m):
        rho[i, i] = abs(model.coefficients[i]) ** 2
    # bra branch j, ket branch i: entry (i, j) of the reduced matrix
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    branches = _Terms(model.branches)
    walked = _walk(branches, branches, [[(1.0 + 0j, j, i)] for i, j in pairs], [truncation])
    for (i, j), ((g, _),) in zip(pairs, walked):
        val = model.coefficients[i] * model.coefficients[j].conjugate() * g
        rho[i, j] = val
        rho[j, i] = val.conjugate()
    return TruncatedDensityMatrix(rho, truncation)


def _pair_horizon(
    bra: ProductState,
    ket: ProductState,
    base_log: float,
    log_eps: float,
    budget: int,
) -> float:
    """Smallest N with base * prod_{site<N} |<bra_site|ket_site>| below eps."""
    if base_log == -math.inf or base_log < log_eps:
        return 0
    cur = base_log
    site = 0
    span = max(bra.prefix_len, ket.prefix_len)
    constant = isinstance(bra.tail, ConstantTail) and isinstance(ket.tail, ConstantTail)
    if constant:
        # past the prefix every site repeats; the walk stops there
        stop = span
        certified = False
    else:
        u_limit, u_decay = _tail_descriptor(bra.tail)
        w_limit, w_decay = _tail_descriptor(ket.tail)
        stop = max(span, budget)
        certified = (
            abs(abs(factor_overlap(u_limit, w_limit)) - 1.0) <= ALIGN_EXACT
            and u_decay.summable
            and w_decay.summable
        )
    while site < stop:
        g = factor_overlap(bra.factor_at(site), ket.factor_at(site))
        mod = abs(g)
        if mod == 0.0:
            return site + 1
        cur += math.log(mod)
        site += 1
        if cur < log_eps:
            return site
        if site % _HORIZON_CHECK_EVERY == 0 and certified and site > span:
            # remaining per-site log losses are dominated by the decay
            # series; |log x| <= 2|x - 1| once the terms sit above 1/2
            remaining = (w_limit.norm + w_decay.scale) * u_decay.series_bound(
                site
            ) + u_limit.norm * w_decay.series_bound(site)
            if remaining <= 0.25 and cur - 2.0 * remaining >= log_eps:
                return math.inf
    if constant:
        mod = abs(factor_overlap(bra.tail.vector, ket.tail.vector))
        if mod == 0.0:
            return site + 1
        if mod >= 1.0 - ALIGN_EXACT:
            return math.inf
        # closed form: first N with cur + (N - site) * log(mod) < log_eps
        step = math.log(mod)
        return site + math.floor((log_eps - cur) / step) + 1
    raise PreconditionViolated(
        "decoherence horizon undecided within budget",
        budget=budget,
        log_modulus=cur,
        target=log_eps,
    )


def decoherence_horizon(
    model: MeasurementModel,
    eps: float,
    pair: Optional[tuple[int, int]] = None,
    budget: int = 1_000_000,
) -> float:
    """Smallest cutoff beyond which off-diagonal moduli stay below eps.

    Returns an int, or ``math.inf`` when the decay certificates prove the
    coherence never drops below the threshold.
    """
    if not (eps > 0.0 and math.isfinite(eps)):
        raise PreconditionViolated(f"eps must be positive and finite, got {eps!r}")
    m = model.n_outcomes
    if pair is not None:
        i, j = pair
        if not (0 <= i < m and 0 <= j < m):
            raise IndexOutOfRange(f"pair {pair!r} out of range for {m} outcomes")
        if i == j:
            raise PreconditionViolated("horizon is defined for distinct outcomes")
        pairs = [(i, j)]
    else:
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    log_eps = math.log(eps)
    worst: float = 0
    for i, j in pairs:
        base = abs(model.coefficients[i]) * abs(model.coefficients[j])
        base_log = math.log(base) if base > 0.0 else -math.inf
        h = _pair_horizon(
            model.branches[j], model.branches[i], base_log, log_eps, budget
        )
        if h == math.inf:
            return math.inf
        worst = max(worst, h)
    return int(worst)


def sample_outcomes(model: MeasurementModel, n: int, seed: int) -> np.ndarray:
    """Draw n outcome indices from the pointer probabilities.

    Same seed, same platform, same bytes: a fixed-stream generator feeds an
    inverse-CDF lookup, so reruns are reproducible down to the array buffer.
    """
    if n < 0:
        raise PreconditionViolated("sample count must be >= 0")
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(model.probabilities)
    cdf[-1] = 1.0
    u = rng.random(n)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def sample_outcome(model: MeasurementModel, seed: int) -> int:
    return int(sample_outcomes(model, 1, seed)[0])


def collapse(model: MeasurementModel, outcome: int) -> MeasurementModel:
    """Post-measurement model: all weight on one outcome, branches kept.

    Collapsing twice onto the same outcome is a no-op by construction.
    """
    if not (0 <= outcome < model.n_outcomes):
        raise IndexOutOfRange(
            f"outcome {outcome} out of range for {model.n_outcomes} outcomes"
        )
    coeffs = tuple(
        (1.0 + 0j) if i == outcome else (0.0 + 0j)
        for i in range(model.n_outcomes)
    )
    return MeasurementModel(coeffs, model.branches, label=model.label)
