"""Factored operators acting factor-wise on product states.

An operator is a finite sum of terms; each term is a coefficient, a prefix
of explicit per-factor matrices, and a tail that is either the identity
(finite support) or a constant matrix repeated forever.  Applying a term to
a product state stays product-shaped, so sums of terms land in composite
states and truncated expectations reduce to per-factor brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import (
    DimensionBudgetExceeded,
    InvalidAmplitude,
    NonFactorizableGenerator,
    NonHermitianGenerator,
    PreconditionViolated,
    ShapeMismatch,
)
from .overlaps import OverlapSweep, _check_cuts, _sweep, _Terms, composite_overlap
from .states import (
    ALIGN_EXACT,
    ALIGN_GRAY,
    CompositeState,
    FactorVector,
    ProductState,
    _dim_runs,
    _first_dim_mismatch,
    factor_overlap,
)

__all__ = [
    "FactorOperator",
    "IdentityTail",
    "ConstantOperatorTail",
    "OperatorTerm",
    "FactoredOperator",
    "SectorActionVerdict",
    "EvolutionResult",
    "identity_operator",
    "apply_operator",
    "sector_action",
    "expectation_sweep",
    "evolve",
]

EVOLVE_DIM_LIMIT = 16


@dataclass(frozen=True, eq=False)
class FactorOperator:
    """A square matrix on one factor space with a cached norm bound."""

    matrix: np.ndarray
    norm_bound: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ShapeMismatch(f"operator matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise InvalidAmplitude("operator matrix has non-finite entries")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "norm_bound", float(np.linalg.norm(m, 2)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_identity(self) -> bool:
        return bool(
            np.max(np.abs(self.matrix - np.eye(self.dim))) <= ALIGN_EXACT
        )

    @property
    def is_hermitian(self) -> bool:
        return bool(
            np.max(np.abs(self.matrix - self.matrix.conj().T)) <= ALIGN_EXACT
        )

    def apply_to(self, vec: FactorVector) -> FactorVector:
        if vec.dim != self.dim:
            raise ShapeMismatch(f"operator dim {self.dim} vs factor dim {vec.dim}")
        out = self.matrix @ np.asarray(vec.amplitudes, dtype=complex)
        return FactorVector(tuple(complex(c) for c in out))


def identity_operator(dim: int) -> FactorOperator:
    return FactorOperator(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class IdentityTail:
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ShapeMismatch("identity tail needs dim >= 1")


@dataclass(frozen=True)
class ConstantOperatorTail:
    operator: FactorOperator

    @property
    def dim(self) -> int:
        return self.operator.dim


OperatorTail = Union[IdentityTail, ConstantOperatorTail]


@dataclass(frozen=True)
class OperatorTerm:
    coefficient: complex
    prefix_ops: tuple[FactorOperator, ...]
    tail: OperatorTail

    def __post_init__(self) -> None:
        c = complex(self.coefficient)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise InvalidAmplitude(f"non-finite term coefficient {c!r}")
        object.__setattr__(self, "coefficient", c)
        object.__setattr__(self, "prefix_ops", tuple(self.prefix_ops))
        if not isinstance(self.tail, (IdentityTail, ConstantOperatorTail)):
            raise ShapeMismatch("term tail must be IdentityTail or ConstantOperatorTail")

    def op_at(self, site: int) -> FactorOperator | None:
        """Operator at a site; None means identity (no-op)."""
        if site < len(self.prefix_ops):
            return self.prefix_ops[site]
        if isinstance(self.tail, ConstantOperatorTail):
            return self.tail.operator
        return None

    def dim_at(self, site: int) -> int:
        if site < len(self.prefix_ops):
            return self.prefix_ops[site].dim
        return self.tail.dim

    def image_at(self, site: int, f: FactorVector) -> FactorVector:
        """The image of the factor ``f`` at ``site``: ``f`` itself where the
        term acts as the identity."""
        u = self.op_at(site)
        return f if u is None else u.apply_to(f)

    def image_rows(self, lo: int, f: np.ndarray, out: np.ndarray) -> None:
        """Write the images of the factor rows ``f`` of the sites [lo, lo +
        len(f)) into ``out``: the stacked prefix operators over their rows,
        then the tail over the rest.  Both are batched matrix-vector
        products, so each row has the bits of ``image_at``."""
        ops = self.prefix_ops[lo : lo + len(f)]
        k = len(ops)
        if ops:
            np.matmul(np.stack([u.matrix for u in ops]), f[:k, :, None], out=out[:k, :, None])
        if isinstance(self.tail, ConstantOperatorTail):
            np.matmul(self.tail.operator.matrix, f[k:, :, None], out=out[k:, :, None])
        else:
            out[k:] = f[k:]


@dataclass(frozen=True)
class FactoredOperator:
    """Finite sum of factor-wise terms."""

    terms: tuple[OperatorTerm, ...]

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if not terms:
            raise PreconditionViolated("factored operator needs at least one term")
        object.__setattr__(self, "terms", terms)
        first = terms[0]
        span = max(len(t.prefix_ops) for t in terms)
        for t in terms[1:]:
            for site in range(span):
                if t.dim_at(site) != first.dim_at(site):
                    raise ShapeMismatch(
                        f"terms disagree on dim at site {site}: "
                        f"{t.dim_at(site)} vs {first.dim_at(site)}"
                    )
            if t.tail.dim != first.tail.dim:
                raise ShapeMismatch("terms disagree on tail dim")

    @property
    def finite_support(self) -> bool:
        return all(isinstance(t.tail, IdentityTail) for t in self.terms)

    @property
    def support(self) -> tuple[int, ...]:
        """Prefix sites where some term acts non-trivially."""
        sites = set()
        for t in self.terms:
            for site, op in enumerate(t.prefix_ops):
                if not op.is_identity:
                    sites.add(site)
        return tuple(sorted(sites))

    def dim_at(self, site: int) -> int:
        return self.terms[0].dim_at(site)

    @property
    def tail_dim(self) -> int:
        return self.terms[0].tail.dim

    def norm_bound(self, truncation: int) -> float:
        """Triangle-inequality bound on the truncated operator norm: per term,
        the norms of the prefix operators within ``truncation``, times the
        tail operator's norm to the power of the sites left."""
        total = 0.0
        for t in self.terms:
            cut = max(min(truncation, len(t.prefix_ops)), 0)
            prod = 1.0
            for op in t.prefix_ops[:cut]:
                prod *= op.norm_bound
            rest, tail = truncation - cut, t.tail
            # a product already at 0 or inf stays there, as in a site-by-site loop
            if rest > 0 and isinstance(tail, ConstantOperatorTail) and 0.0 < prod < math.inf:
                try:
                    prod *= tail.operator.norm_bound**rest
                except OverflowError:
                    prod = math.inf
            total += abs(t.coefficient) * prod
        return total


def _check_op_state_dims(op: FactoredOperator, state: ProductState) -> None:
    op_runs = _dim_runs(u.dim for u in op.terms[0].prefix_ops)
    mismatch = _first_dim_mismatch(op_runs, op.tail_dim, state.dim_runs, state.tail_dim)
    if mismatch is None:
        return
    site, op_dim, state_dim = mismatch
    if site < max(max(len(t.prefix_ops) for t in op.terms), state.prefix_len):
        raise ShapeMismatch(
            f"operator dim {op_dim} vs state dim {state_dim} at site {site}"
        )
    raise ShapeMismatch(
        f"operator tail dim {op.tail_dim} vs state tail dim {state.tail_dim}"
    )


def apply_operator(op: FactoredOperator, state: ProductState) -> CompositeState:
    """Act factor-wise; each term yields one product-state component."""
    _check_op_state_dims(op, state)
    tail, out_terms = state.tail, []
    for t in op.terms:
        span = max(len(t.prefix_ops), state.prefix_len)
        prefix = tuple(t.image_at(site, state.factor_at(site)) for site in range(span))
        image_tail = tail
        if isinstance(t.tail, ConstantOperatorTail):
            u = t.tail.operator
            # a bounded map stretches distances by at most its norm bound
            image_tail = tail.mapped(u.apply_to, tail.decay.scale * u.norm_bound)
        out_terms.append((t.coefficient, ProductState(prefix, image_tail, label=state.label)))
    return CompositeState(tuple(out_terms))


_ACTION_KINDS = ("PreservesSector", "LeavesSector", "Inconclusive")


@dataclass(frozen=True)
class SectorActionVerdict:
    kind: str
    witness: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _ACTION_KINDS:
            raise PreconditionViolated(f"unknown action kind {self.kind!r}")


def sector_action(op: FactoredOperator, state: ProductState) -> SectorActionVerdict:
    """Whether acting with ``op`` can move ``state`` out of its sector."""
    _check_op_state_dims(op, state)
    kind = state.sequence_class.kind
    if kind != "NonTrivialConvergentSequence":
        raise PreconditionViolated(
            f"state is {kind}; sector action needs NonTrivialConvergentSequence"
        )
    limit = state.tail.limit
    off_unit = [f.norm for f in state.prefix if abs(f.norm - 1.0) > ALIGN_GRAY]
    if off_unit or abs(limit.norm - 1.0) > ALIGN_GRAY:
        raise PreconditionViolated(
            "sector action is defined for unit-norm factors", norms=off_unit
        )

    if op.finite_support:
        return SectorActionVerdict(
            "PreservesSector",
            {"kind": "finite-support", "support": op.support},
        )

    term_reports = []
    leaves = None
    all_fixed = True
    any_surviving = False
    for idx, t in enumerate(op.terms):
        if t.coefficient == 0:
            continue
        # every prefix factor is a unit vector, so only an operator can zero one
        span = max(len(t.prefix_ops), state.prefix_len)
        if any(t.image_at(site, state.factor_at(site)).norm_sq == 0.0 for site in range(span)):
            continue
        if isinstance(t.tail, IdentityTail):
            any_surviving = True
            term_reports.append({"term": idx, "tail": "identity", "residual": 0.0})
            continue
        u = t.tail.operator
        image = u.apply_to(limit)
        if image.norm_sq == 0.0:
            continue
        any_surviving = True
        bracket = factor_overlap(limit, image)
        residual = limit.distance_to(image)
        term_reports.append(
            {
                "term": idx,
                "tail_bracket_re": bracket.real,
                "tail_bracket_im": bracket.imag,
                "modulus_deficit": 1.0 - abs(bracket),
                "residual": residual,
            }
        )
        if abs(bracket) < 1.0 - ALIGN_GRAY:
            leaves = term_reports[-1]
        if not (abs(bracket - 1.0) <= ALIGN_EXACT and residual <= ALIGN_GRAY):
            all_fixed = False

    if not any_surviving:
        return SectorActionVerdict(
            "Inconclusive", {"reason": "operator annihilates the truncated state"}
        )
    if leaves is not None:
        return SectorActionVerdict("LeavesSector", {"witness": leaves})
    if all_fixed:
        return SectorActionVerdict(
            "PreservesSector", {"kind": "fixed-tail", "terms": term_reports}
        )
    return SectorActionVerdict(
        "Inconclusive",
        {"reason": "tail bracket neither aligned nor clearly contracting",
         "terms": term_reports},
    )


def expectation_sweep(
    op: FactoredOperator,
    state: ProductState,
    truncations: Sequence[int],
) -> OverlapSweep:
    """<state|op|state> restricted to the first N factors, per cutoff.

    Each term is bracketed against its image U_t f, so no image is built
    past the last cut: site by site, each factor f fetched once, or over
    the state's stacked prefix rows in the block stretch.
    """
    cuts = _check_cuts(truncations)
    _check_op_state_dims(op, state)
    fetched: list = [-1, None]  # (site, factor) shared by every term

    def factor(site: int) -> FactorVector:
        if fetched[0] != site:
            fetched[:] = site, state.factor_at(site)
        return fetched[1]

    side = _Terms([state], sources=[factor])
    readout = [(t.coefficient, 0, k) for k, t in enumerate(op.terms)]
    return _sweep(side, _Images(op.terms, side), [readout], cuts)


class _Images:
    """Walk side of the images U_t f of a one-term side's factors f, one
    term per operator term.  Every term's tail operator is constant, so an
    image stays one vector wherever the factor does past the prefix
    operators: its runs are the factor's, each start moved to at least
    ``len(prefix_ops)``."""

    def __init__(self, terms: Sequence[OperatorTerm], state: _Terms) -> None:
        self.terms = terms
        self.state = state
        # images are stacked over the explicit prefix only
        self.explicit = self.stackable = state.explicit
        (runs,) = state.runs
        self.runs = [tuple(sorted({max(s, len(t.prefix_ops)) for s in runs})) for t in terms]
        factor = state.sources[0]
        self.sources = [lambda site, t=t: t.image_at(site, factor(site)) for t in terms]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """(terms, sites, dim) image rows of the explicit sites [lo, hi)."""
        f = self.state.rows(lo, hi)[0]
        out = np.empty((len(self.terms),) + f.shape, dtype=complex)
        for img, t in zip(out, self.terms):
            t.image_rows(lo, f, img)
        return out


@dataclass(frozen=True)
class EvolutionResult:
    state: CompositeState
    survival: complex
    truncation: int


def _require_hermitian(op: FactorOperator, where: str) -> None:
    dev = float(np.max(np.abs(op.matrix - op.matrix.conj().T)))
    if dev > ALIGN_EXACT:
        raise NonHermitianGenerator(
            f"{where} deviates from Hermiticity by {dev:.3e}"
        )
    if op.dim > EVOLVE_DIM_LIMIT:
        raise DimensionBudgetExceeded(
            f"evolve handles factor dims up to {EVOLVE_DIM_LIMIT}, got {op.dim}"
        )


def _propagator(h: FactorOperator, angle: float) -> FactorOperator:
    """exp(i * angle * h) for Hermitian h, as V diag(e^{i angle lambda}) V^dagger."""
    lam, v = np.linalg.eigh(h.matrix)
    return FactorOperator((v * np.exp(1j * angle * lam)) @ v.conj().T)


def evolve(
    generator: FactoredOperator,
    state: ProductState,
    t: float,
    truncation: int,
) -> EvolutionResult:
    """Apply exp(i * t * generator) factor-wise.

    Only single-term generators factorize site-by-site, so multi-term input
    is rejected rather than silently approximated; no global matrix
    exponential is ever assembled.
    """
    if len(generator.terms) != 1:
        raise NonFactorizableGenerator(
            "evolution factorizes only for single-term generators",
            n_terms=len(generator.terms),
        )
    term = generator.terms[0]
    coeff = term.coefficient
    if abs(coeff.imag) > ALIGN_EXACT:
        raise NonHermitianGenerator(
            f"generator coefficient {coeff!r} must be real"
        )
    scale = coeff.real
    for site, h in enumerate(term.prefix_ops):
        _require_hermitian(h, f"prefix generator at site {site}")
    exp_prefix = tuple(_propagator(h, t * scale) for h in term.prefix_ops)
    if isinstance(term.tail, ConstantOperatorTail):
        _require_hermitian(term.tail.operator, "tail generator")
        tail: OperatorTail = ConstantOperatorTail(
            _propagator(term.tail.operator, t * scale)
        )
    else:
        tail = term.tail
    propagator = FactoredOperator(
        (OperatorTerm(1.0 + 0j, exp_prefix, tail),)
    )
    evolved = apply_operator(propagator, state)
    survival = composite_overlap(state, evolved, truncation)
    return EvolutionResult(state=evolved, survival=survival, truncation=truncation)
