"""Pointer measurements recorded in infinitely many device factors.

A measurement model pairs pointer amplitudes with one device branch per
outcome.  Branches must sit in pairwise different sectors, so truncated
off-diagonal matrix elements decay with the cutoff while diagonals stay
put; the horizon functions find the cutoff where the decay passes a
threshold, entirely in log space.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionBudgetExceeded,
    IndexOutOfRange,
    InvalidAmplitude,
    PreconditionViolated,
)
from .overlaps import _sides, _Terms, _walk, _Walker
from .sectors import same_sector
from .states import (
    ALIGN_EXACT,
    ALIGN_GRAY,
    WALK_BUDGET,
    CompositeState,
    ProductState,
    _integer,
    _log_loss_bound,
    _prefix_norms,
    basis_vector,
    ensure_same_shape,
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
# log-space slack of the horizon's block screen (``_screen``)
_SCREEN_MARGIN = 1e-9


def _check_pointer_amplitudes(coeffs: tuple[complex, ...]) -> None:
    """Pointer amplitudes must be finite, then normalized."""
    for c in coeffs:
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise InvalidAmplitude(f"non-finite pointer amplitude {c!r}")
    total = sum(abs(c) ** 2 for c in coeffs)
    if abs(total - 1.0) > ALIGN_EXACT:
        raise InvalidAmplitude(f"pointer amplitudes must be normalized, got sum {total!r}")


def _generator(seed: int) -> np.random.Generator:
    """The fixed-stream generator of ``seed``, which must be >= 0."""
    seed = _integer(seed, "seed")
    if seed < 0:
        raise PreconditionViolated(f"seed must be >= 0, got {seed!r}")
    return np.random.default_rng(seed)


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
        _check_pointer_amplitudes(coeffs)
        for b in branches[1:]:
            ensure_same_shape(branches[0], b)
        for idx, b in enumerate(branches):
            bad = [n for n in _prefix_norms(b) if abs(n - 1.0) > ALIGN_GRAY]
            if bad or abs(b.tail.limit.norm - 1.0) > ALIGN_GRAY:
                raise PreconditionViolated(
                    f"branch {idx} has non-unit factors", norms=bad
                )
            kind = b.sequence_class.kind
            if kind != "NonTrivialConvergentSequence":
                raise PreconditionViolated(
                    f"branch {idx} classifies as {kind}; "
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
    """Entangled system-plus-device state, system factor prepended at site 0:
    device site k sits at site k + 1, tails and their declarations with it."""
    m = model.n_outcomes
    terms = []
    for i, (coeff, branch) in enumerate(zip(model.coefficients, model.branches)):
        system = np.array([basis_vector(m, i).amplitudes])
        tail = branch.tail.shifted(1)
        state = ProductState._of_rows((system, *branch.prefix_rows), tail, branch.label)
        terms.append((coeff, state))
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
        i, j = _integer(i, "outcome"), _integer(j, "outcome")
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexOutOfRange(f"outcomes ({i}, {j}) out of range for {self.dim} outcomes")
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
    truncation = _integer(truncation, "truncation")
    if truncation < 0:
        raise PreconditionViolated("truncation must be >= 0")
    m = model.n_outcomes
    rho = np.zeros((m, m), dtype=complex)
    for i in range(m):
        rho[i, i] = abs(model.coefficients[i]) ** 2
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    for (i, j), ((g, _),) in zip(pairs, _branch_overlaps(model, pairs, [truncation])):
        val = model.coefficients[i] * model.coefficients[j].conjugate() * g
        rho[i, j] = val
        rho[j, i] = val.conjugate()
    return TruncatedDensityMatrix(rho, truncation)


def _branch_overlaps(
    model: MeasurementModel, pairs: list[tuple[int, int]], cuts: list[int]
) -> list[list[tuple[complex, float]]]:
    """(value, log-modulus) of <branch j|branch i>, entry (i, j) of the
    reduced matrix up to the pointer weights, for each pair (i, j) at every
    cut, read off one walk over all branches."""
    branches = _Terms(model.branches)
    return _walk(branches, branches, [[(1.0 + 0j, j, i)] for i, j in pairs], cuts)


def _pair_horizon(
    bra: ProductState, ket: ProductState, base: float, eps: float, budget: int
) -> float:
    """Smallest N with base * |<bra|ket>_N| < eps, where <bra|ket>_N is the
    value ``truncated_overlap(bra, ket, N)`` returns, or ``math.inf`` when
    the decay certificates prove the modulus never drops that far.

    The cuts N = 0, 1, ... are read off one walk over the pair, the walk
    ``truncated_overlap`` makes, so the two agree at exact ties too.  In
    the block stretch the cuts past 0 are screened a block at a time
    (``_screen``) and read from the first that can meet eps.  From
    the first cut inside a run of the pair, with bracket G, where |G| < 1, N
    is solved from the log form and G and, if it falls inside the run,
    checked at N - 1 and N; otherwise the walk goes on at the run's end.
    Only the last run, which never ends, can prove that the modulus stays
    put.  ``budget`` bounds the sites read one at a time past the prefixes;
    parametric tails check their certificate every ``_HORIZON_CHECK_EVERY``
    sites there.  Screening skips no cut where any of these may end the
    search, so each lands at the cut a read of every cut would.
    """
    walk = _Walker(*_sides(bra, ket))
    log_base = math.log(base) if base > 0.0 else -math.inf
    log_eps = math.log(eps)
    span = max(bra.prefix_len, ket.prefix_len)
    stop = max(span, budget)
    screened = eps >= sys.float_info.min

    def below(cut: int) -> bool:
        ((value, _),) = walk.read(cut)
        return base * abs(value) < eps

    n = 0
    while True:
        if screened and 0 < n < walk.blocked:
            # the next certificate check, at a multiple past the prefixes
            certified = -(-max(n, span + 1) // _HORIZON_CHECK_EVERY) * _HORIZON_CHECK_EVERY
            hi = min(walk.blocked, stop, certified, walk.refused_from())
            n = _screen(walk, n, hi, log_eps - log_base)
        ((value, log_mod),) = walk.read(n)
        if base * abs(value) < eps:
            return n
        cur = log_base + log_mod
        run = walk.runs.get(0)
        if run is not None and run[0] <= n:  # a block may end at a later run
            _, end, g, _ = run
            if end == math.inf and abs(g) >= 1.0 - ALIGN_EXACT:
                return math.inf
            # first N with cur + (N - n) * log|G| < log_eps; every read
            # inside the run starts from the run's start
            if abs(g) < 1.0:
                steps = math.floor((log_eps - cur) / math.log(abs(g))) + 1 if g != 0 else 1
                if n + max(1, steps) <= end:
                    last, n = n, n + max(1, steps)
                    while n - 1 > last and below(n - 1):
                        n -= 1
                    while not below(n):
                        n += 1
                    return n
            n = end
            continue
        elif n >= stop:
            raise PreconditionViolated(
                "decoherence horizon undecided within budget",
                budget=budget,
                log_modulus=cur,
                target=log_eps,
            )
        elif (
            n % _HORIZON_CHECK_EVERY == 0
            and n > span
            and cur - _log_loss_bound(bra.tail, ket.tail, n) >= log_eps
        ):
            return math.inf
        n += 1


def _screen(walk: _Walker, lo: int, hi: int, bound: float) -> int:
    """The first cut in [lo, hi), a stretch of ``walk``'s blocks, whose one
    pair can meet base * |value| < eps there, ``bound`` being log(eps / base);
    else hi.

    A cut can meet it where its product is zero or its log modulus, capped
    at 700 as ``_combine`` caps the value it reads, lies below
    ``bound + _SCREEN_MARGIN``.  For a normal eps, |value| (up to 64 cuts a
    direct product) is within a few ulps of exp of that log modulus, far
    inside the margin, so no cut where the predicate holds is passed over."""
    for first, logs, zeros in walk.log_columns(lo, hi):
        met = zeros[0] | (np.minimum(logs[0], 700.0) < bound + _SCREEN_MARGIN)
        if met.any():
            return first + int(met.argmax())
    return hi


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
        try:
            outcomes = [_integer(k, "outcome") for k in pair]
        except TypeError:  # not iterable; _integer raises no TypeError
            outcomes = []
        if len(outcomes) != 2:
            raise PreconditionViolated(f"pair {pair!r} must name two outcomes")
        i, j = outcomes
        if not (0 <= i < m and 0 <= j < m):
            raise IndexOutOfRange(f"pair {pair!r} out of range for {m} outcomes")
        if i == j:
            raise PreconditionViolated("horizon is defined for distinct outcomes")
        pairs = [(i, j)]
    else:
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    worst: float = 0
    for i, j in pairs:
        base = abs(model.coefficients[i]) * abs(model.coefficients[j])
        h = _pair_horizon(model.branches[j], model.branches[i], base, eps, budget)
        if h == math.inf:
            return math.inf
        worst = max(worst, h)
    return int(worst)


def sample_outcomes(model: MeasurementModel, n: int, seed: int) -> np.ndarray:
    """Draw n outcome indices from the pointer probabilities.

    Same seed, same platform, same bytes: a fixed-stream generator feeds an
    inverse-CDF lookup, so reruns are reproducible down to the array buffer.
    """
    n = _integer(n, "sample count")
    if n < 0:
        raise PreconditionViolated("sample count must be >= 0")
    # each sample costs 8 bytes of draws before any lookup, so the count is capped up front
    if n > WALK_BUDGET:
        raise DimensionBudgetExceeded(
            f"{n} samples requested; the budget is {WALK_BUDGET}", count=n, budget=WALK_BUDGET
        )
    rng = _generator(seed)
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
    outcome = _integer(outcome, "outcome")
    if not (0 <= outcome < model.n_outcomes):
        raise IndexOutOfRange(
            f"outcome {outcome} out of range for {model.n_outcomes} outcomes"
        )
    coeffs = tuple(
        (1.0 + 0j) if i == outcome else (0.0 + 0j)
        for i in range(model.n_outcomes)
    )
    return MeasurementModel(coeffs, model.branches, label=model.label)
