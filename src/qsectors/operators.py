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
from functools import cached_property
from itertools import groupby
from typing import Sequence, Union

import numpy as np

from .errors import (
    DimensionBudgetExceeded,
    IndexOutOfRange,
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
    ConstantTail,
    FactorVector,
    ProductState,
    _check_finite,
    _first_dim_mismatch,
    _FieldState,
    _Prefix,
    _prefix_norms,
    _run_at,
    _spans,
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
class FactorOperator(_FieldState):
    """A square matrix on one factor space.  Two operators are equal when
    their matrices are.

    ``norm_bound``, the matrix's 2-norm, is computed on first read and kept
    for the life of the operator; it is not pickled."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ShapeMismatch(f"operator matrix must be square, got {m.shape}")
        _check_entries(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __setstate__(self, state: dict) -> None:
        # an unpickled matrix is writeable: copy, check and freeze it again
        super().__setstate__(state)
        self.__post_init__()

    @cached_property
    def norm_bound(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactorOperator):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 entries into the 0.0 they equal
        return hash((self.matrix + 0.0).tobytes())

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
        return FactorVector(tuple(out.tolist()))


def _check_entries(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise InvalidAmplitude("operator matrix has non-finite entries")


def _operator(matrix: np.ndarray) -> FactorOperator:
    """A ``FactorOperator`` of a read-only matrix read off a term's arrays,
    which hold only checked entries, so they are not gone through again."""
    u = object.__new__(FactorOperator)
    u.__dict__["matrix"] = matrix
    return u


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
class OperatorTerm(_FieldState):
    """A coefficient, the operators of an explicit prefix, and a tail.

    The prefix operators are given as ``FactorOperator``s and kept as
    ``prefix_matrices``, one read-only (sites, dim, dim) complex array per
    run of ``dim_runs``, 16 bytes per entry; ``prefix_ops`` and ``op_at``
    build operators from them on demand.  Equality, hashes, repr and pickles
    are those of the ``prefix_ops`` tuple."""

    coefficient: complex
    prefix_ops: tuple[FactorOperator, ...] = _Prefix(
        FactorOperator,
        "prefix_matrices",
        lambda ops: [np.array([u.matrix for u in r]) for _, r in groupby(ops, lambda u: u.dim)],
        lambda matrices: map(_operator, matrices),
    )
    tail: OperatorTail

    def __post_init__(self) -> None:
        c = complex(self.coefficient)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise InvalidAmplitude(f"non-finite term coefficient {c!r}")
        object.__setattr__(self, "coefficient", c)
        if not isinstance(self.tail, (IdentityTail, ConstantOperatorTail)):
            raise ShapeMismatch("term tail must be IdentityTail or ConstantOperatorTail")

    def op_at(self, site: int) -> FactorOperator | None:
        """Operator at a site; None means identity (no-op)."""
        if site < self.prefix_len:
            if site < 0:
                raise IndexOutOfRange(f"negative site {site}")
            k, start = _run_at(self.dim_runs, site)
            return _operator(self.prefix_matrices[k][site - start])
        if isinstance(self.tail, ConstantOperatorTail):
            return self.tail.operator
        return None

    def dim_at(self, site: int) -> int:
        if site < self.prefix_len:
            return self.op_at(site).dim  # refuses a negative site
        return self.tail.dim

    def image_at(self, site: int, f: FactorVector) -> FactorVector:
        """The image of the factor ``f`` at ``site``: ``f`` itself where the
        term acts as the identity."""
        u = self.op_at(site)
        return f if u is None else u.apply_to(f)

    def image_rows(self, lo: int, f: np.ndarray, out: np.ndarray) -> None:
        """Write the images of the factor rows ``f`` of the sites [lo, lo +
        len(f)), which share one dim, into ``out``: the prefix operators'
        arrays over their rows, then the tail over the rest.  Both are
        batched matrix-vector products, so each row has the bits of
        ``image_at``."""
        k = min(len(f), max(0, self.prefix_len - lo))
        if k:
            run, start = _run_at(self.dim_runs, lo)
            ops = self.prefix_matrices[run][lo - start : lo - start + k]
            np.matmul(ops, f[:k, :, None], out=out[:k, :, None])
        if k == len(f):
            return  # the tail may have another dim
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
        span = max(t.prefix_len for t in terms)
        for t in terms[1:]:
            mismatch = _first_dim_mismatch(t.dim_runs, t.tail.dim, first.dim_runs, first.tail.dim)
            if mismatch and mismatch[0] < span:
                raise ShapeMismatch("terms disagree on dim at site {}: {} vs {}".format(*mismatch))
            if mismatch:  # past every prefix: the tails differ
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
        tail operator's norm to the power of the sites left.  A run's norms
        are one batched SVD, each with the bits of ``norm_bound``."""
        total = 0.0
        for t in self.terms:
            cut = max(min(truncation, t.prefix_len), 0)
            prod = 1.0
            for (end, _), m in zip(t.dim_runs, t.prefix_matrices):
                start = end - len(m)
                if start < cut:
                    for norm in np.linalg.norm(m[: cut - start], 2, axis=(1, 2)).tolist():
                        prod *= norm
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
    mismatch = _first_dim_mismatch(
        op.terms[0].dim_runs, op.tail_dim, state.dim_runs, state.tail_dim
    )
    if mismatch is None:
        return
    site, op_dim, state_dim = mismatch
    if site < max(max(t.prefix_len for t in op.terms), state.prefix_len):
        raise ShapeMismatch(
            f"operator dim {op_dim} vs state dim {state_dim} at site {site}"
        )
    raise ShapeMismatch(
        f"operator tail dim {op.tail_dim} vs state tail dim {state.tail_dim}"
    )


def _image_prefix(t: OperatorTerm, state: ProductState) -> list[np.ndarray]:
    """The images under ``t`` of the state's factors at the sites below the
    longer of the two prefixes, one array per stretch of one dim
    (``_spans``), each row bit for bit ``image_at``, not yet checked."""
    out = []
    for lo, hi in _spans(state, max(t.prefix_len, state.prefix_len)):
        f = state.rows(lo, hi)
        out.append(np.empty(f.shape, dtype=complex))
        t.image_rows(lo, f, out[-1])
    return out


def apply_operator(op: FactoredOperator, state: ProductState) -> CompositeState:
    """Act factor-wise; each term yields one product-state component."""
    _check_op_state_dims(op, state)
    tail, out_terms = state.tail, []
    for t in op.terms:
        prefix = _image_prefix(t, state)
        for rows in prefix:
            _check_finite(rows)
        image_tail = tail
        if isinstance(t.tail, ConstantOperatorTail):
            u = t.tail.operator
            # a bounded map stretches distances by at most its norm bound; a
            # constant tail ignores the scale, so its operator's SVD is not taken
            scale = 0.0 if isinstance(tail, ConstantTail) else tail.decay.scale * u.norm_bound
            image_tail = tail.mapped(u.apply_to, scale)
        out_terms.append((t.coefficient, ProductState._of_rows(prefix, image_tail, state.label)))
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
    off_unit = [n for n in _prefix_norms(state) if abs(n - 1.0) > ALIGN_GRAY]
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
        span = max(t.prefix_len, state.prefix_len)
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
    past the last cut: in the block stretch over the state's rows (its
    stacked prefix, and a tail with closed rows), else site by site, each
    factor f fetched once.
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
    ``prefix_len``.  Image rows reach as far as the factor rows do
    (``stackable``): the explicit prefix, and past it a tail with closed
    rows, so a decoded family's images are bracketed in blocks too."""

    def __init__(self, terms: Sequence[OperatorTerm], state: _Terms) -> None:
        self.terms = terms
        self.state = state
        self.explicit, self.stackable = state.explicit, state.stackable
        (runs,) = state.runs
        self.runs = [tuple(sorted({max(s, t.prefix_len) for s in runs})) for t in terms]
        factor = state.sources[0]
        self.sources = [lambda site, t=t: t.image_at(site, factor(site)) for t in terms]

    def rows(self, lo: int, hi: int, reach: float = math.inf) -> np.ndarray:
        """(terms, sites, dim) image rows of the sites [lo, hi), from the
        state side's rows of them (``_Terms.rows``)."""
        f = self.state.rows(lo, hi, reach)[0]
        out = np.empty((len(self.terms),) + f.shape, dtype=complex)
        for img, t in zip(out, self.terms):
            t.image_rows(lo, f, img)
        return out


@dataclass(frozen=True)
class EvolutionResult:
    state: CompositeState
    survival: complex
    truncation: int


def _require_hermitian(h: np.ndarray, start: int | None = None) -> None:
    """Refuse the first generator of the (sites, dim, dim) stack ``h``, in
    site order, that is not Hermitian within ALIGN_EXACT or, Hermitian, has
    a dim past EVOLVE_DIM_LIMIT: prefix generators from site ``start``, or
    the tail generator where ``start`` is None."""
    devs = np.max(np.abs(h - h.conj().transpose(0, 2, 1)), axis=(1, 2))
    for k, dev in enumerate(devs.tolist()):
        if dev > ALIGN_EXACT:
            where = "tail generator" if start is None else f"prefix generator at site {start + k}"
            raise NonHermitianGenerator(f"{where} deviates from Hermiticity by {dev:.3e}")
        if h.shape[1] > EVOLVE_DIM_LIMIT:
            raise DimensionBudgetExceeded(
                f"evolve handles factor dims up to {EVOLVE_DIM_LIMIT}, got {h.shape[1]}"
            )


def _propagators(h: np.ndarray, angle: float) -> np.ndarray:
    """exp(i * angle * h) of each Hermitian matrix of the (sites, dim, dim)
    stack ``h``, as V diag(e^{i angle lambda}) V^dagger: one batched eigh and
    matmul, each matrix with the bits of the same steps on it alone."""
    lam, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * angle * lam)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    _check_entries(u)
    u.setflags(write=False)
    return u


def evolve(
    generator: FactoredOperator,
    state: ProductState,
    t: float,
    truncation: int,
) -> EvolutionResult:
    """Apply exp(i * t * generator) factor-wise.

    Only single-term generators factorize site-by-site, so multi-term input
    is rejected rather than silently approximated; no global matrix
    exponential is ever assembled.  The prefix propagators are built per dim
    run of the generator's prefix: one Hermiticity check, one batched eigh
    and one array of propagators a run.
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
    for (end, _), h in zip(term.dim_runs, term.prefix_matrices):
        _require_hermitian(h, end - len(h))
    exp_prefix = [_operator(u) for h in term.prefix_matrices for u in _propagators(h, t * scale)]
    tail = term.tail
    if isinstance(tail, ConstantOperatorTail):
        h = tail.operator.matrix[None]
        _require_hermitian(h)
        tail = ConstantOperatorTail(_operator(_propagators(h, t * scale)[0]))
    propagator = FactoredOperator((OperatorTerm(1.0 + 0j, exp_prefix, tail),))
    evolved = apply_operator(propagator, state)
    survival = composite_overlap(state, evolved, truncation)
    return EvolutionResult(state=evolved, survival=survival, truncation=truncation)
