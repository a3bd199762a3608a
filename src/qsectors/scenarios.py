"""Worked scenarios: spin chains with tunable overlap decay, and a
detector cascade that amplifies one record into astronomically many.

The spin pair realizes a per-site decay exponent xi = p/q by rotating p
spins out of every q.  A periodic site rule has no declarable decay class,
so q sites are blocked into one constant factor of dimension 2**q and the
sweep is taken over whole blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence, Union

import numpy as np

from .decoherence import (
    MeasurementModel,
    _check_pointer_amplitudes,
    _generator,
    truncated_density,
)
from .errors import DimensionBudgetExceeded, NonIntegralFraction, PreconditionViolated
from .overlaps import OverlapSweep, overlap_sweep
from .products import _scaled
from .sectors import SectorVerdict, same_sector
from .states import ConstantTail, FactorVector, ProductState, basis_vector

__all__ = [
    "SpinChainScenario",
    "build_spin_pair",
    "StageSpec",
    "CascadeSpec",
    "CascadeStage",
    "CascadeResult",
    "default_cascade",
    "run_cascade",
    "cascade_stage_report",
]

MAX_BLOCK_PERIOD = 16

_UP = np.array([1.0, 0.0], dtype=complex)
_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


def _blocked_rotation(p: int, q: int) -> FactorVector:
    """Kronecker fold of p plus-spins followed by q - p up-spins."""
    factors = [_PLUS] * p + [_UP] * (q - p)
    folded = reduce(np.kron, factors)
    return FactorVector(tuple(folded.tolist()))


@dataclass(frozen=True)
class SpinChainScenario:
    """All-up chain against a chain with p of every q spins rotated."""

    xi: Fraction

    def __post_init__(self) -> None:
        xi = Fraction(self.xi)
        object.__setattr__(self, "xi", xi)
        if not (0 <= xi <= 1):
            raise PreconditionViolated(
                f"rotation density must lie in [0, 1], got {xi}"
            )
        if xi.denominator > MAX_BLOCK_PERIOD:
            raise DimensionBudgetExceeded(
                f"blocking period {xi.denominator} exceeds {MAX_BLOCK_PERIOD}; "
                "use a coarser fraction"
            )

    @property
    def period(self) -> int:
        return self.xi.denominator

    @property
    def rotated_per_period(self) -> int:
        return self.xi.numerator

    @property
    def block_dim(self) -> int:
        return 2 ** self.period

    def states(self) -> tuple[ProductState, ProductState]:
        q = self.period
        up_block = ProductState(
            (), ConstantTail(basis_vector(self.block_dim, 0)), label="all-up"
        )
        rotated = ProductState(
            (),
            ConstantTail(_blocked_rotation(self.rotated_per_period, q)),
            label="rotated",
        )
        return up_block, rotated

    def closed_overlap(self, n_sites: int) -> float:
        """Exact overlap of the first n_sites spins: 2**(-xi n / 2)."""
        self._require_aligned(n_sites)
        rotated = int(self.xi * n_sites)
        return 2.0 ** (-rotated / 2.0)

    def closed_probability(self, n_sites: int) -> float:
        self._require_aligned(n_sites)
        return 2.0 ** (-int(self.xi * n_sites))

    def _require_aligned(self, n_sites: int) -> None:
        if n_sites < 1:
            raise PreconditionViolated("site count must be >= 1")
        if n_sites % self.period != 0:
            raise NonIntegralFraction(
                f"site count {n_sites} is not a multiple of the blocking "
                f"period {self.period}"
            )

    def sweep(self, site_counts: Sequence[int]) -> OverlapSweep:
        """Overlap sweep indexed by spin count, computed over whole blocks."""
        counts = list(site_counts)
        if not counts:
            raise PreconditionViolated("at least one site count is required")
        for n in counts:
            self._require_aligned(n)
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise PreconditionViolated("site counts must be strictly increasing")
        a, b = self.states()
        blocked = overlap_sweep(a, b, [n // self.period for n in counts])
        # the blocked sweep's columns, relabelled by spin count
        return OverlapSweep(counts, blocked._values, blocked._log_modulus)

    def sector_verdict(self) -> SectorVerdict:
        a, b = self.states()
        return same_sector(a, b)


def build_spin_pair(xi: Union[Fraction, int, str]) -> tuple[ProductState, ProductState]:
    return SpinChainScenario(Fraction(xi)).states()


_STAGE_KINDS = ("fixed", "poisson")


@dataclass(frozen=True)
class StageSpec:
    """One amplification stage: every parent record spawns this many."""

    name: str
    kind: str
    parameter: float

    def __post_init__(self) -> None:
        if self.kind not in _STAGE_KINDS:
            raise PreconditionViolated(
                f"stage kind must be one of {_STAGE_KINDS}, got {self.kind!r}"
            )
        p = float(self.parameter)
        if not (math.isfinite(p) and p >= 0.0):
            raise PreconditionViolated(f"stage parameter must be >= 0, got {p!r}")
        if self.kind == "fixed" and p != int(p):
            raise PreconditionViolated(
                f"fixed stage needs an integral count, got {p!r}"
            )
        object.__setattr__(self, "parameter", p)


@dataclass(frozen=True)
class CascadeSpec:
    """Detector cascade: pointer amplitudes, fan-out stages, record fidelity.

    ``fidelity`` is the per-record overlap between the two device branches;
    ``loss_rate`` thins the first stage binomially and ``dark_rate`` adds
    Poisson false records to it.
    """

    stages: tuple[StageSpec, ...]
    fidelity: float = 0.99
    amplitudes: tuple[complex, complex] = (2.0 ** -0.5, 2.0 ** -0.5)
    loss_rate: float = 0.0
    dark_rate: float = 0.0

    def __post_init__(self) -> None:
        stages = tuple(self.stages)
        if not stages:
            raise PreconditionViolated("cascade needs at least one stage")
        object.__setattr__(self, "stages", stages)
        eta = float(self.fidelity)
        if not (0.0 <= eta <= 1.0 - 1e-6):
            raise PreconditionViolated(
                f"fidelity must lie in [0, 1 - 1e-6], got {eta!r}"
            )
        object.__setattr__(self, "fidelity", eta)
        amps = tuple(complex(c) for c in self.amplitudes)
        if len(amps) != 2:
            raise PreconditionViolated("cascade tracks exactly two outcomes")
        _check_pointer_amplitudes(amps)
        object.__setattr__(self, "amplitudes", amps)
        if not (0.0 <= self.loss_rate <= 1.0):
            raise PreconditionViolated(
                f"loss rate must lie in [0, 1], got {self.loss_rate!r}"
            )
        if not (math.isfinite(self.dark_rate) and self.dark_rate >= 0.0):
            raise PreconditionViolated(
                f"dark rate must be >= 0, got {self.dark_rate!r}"
            )


def default_cascade() -> CascadeSpec:
    """Ten fluorescence photons, each scattering 100 times, each scatter
    shedding 50 phosphorescence quanta."""
    return CascadeSpec(
        stages=(
            StageSpec("fluorescence", "fixed", 10),
            StageSpec("secondary", "fixed", 100),
            StageSpec("phosphorescence", "fixed", 50),
        )
    )


@dataclass(frozen=True)
class CascadeStage:
    name: str
    kind: str
    parameter: float
    count: int
    cumulative_records: int
    log10_coherence: float


@dataclass(frozen=True)
class CascadeResult:
    spec: CascadeSpec
    seed: int
    stages: tuple[CascadeStage, ...]
    total_records: int
    log10_coherence: float
    coherence: float
    degenerate: bool
    model: Optional[MeasurementModel]

    def density(self) -> "TruncatedDensityMatrix":
        if self.model is None:
            raise PreconditionViolated(
                "degenerate cascade produced no records to trace out"
            )
        return truncated_density(self.model, self.total_records)


# The largest binomial count and Poisson mean numpy's generator draws.
_INT64_MAX = int(np.iinfo(np.int64).max)
_POISSON_MEAN_MAX = _INT64_MAX - math.sqrt(_INT64_MAX) * 10


def _check_draw(stage: StageSpec, what: str, value: float, limit: float) -> None:
    """Refuse a draw that numpy's generator would refuse, before it is drawn."""
    if value > limit:
        raise DimensionBudgetExceeded(
            f"stage {stage.name!r} would draw with a {what} of {value:g}; "
            f"the generator's limit is {limit:g}",
            stage=stage.name,
            value=value,
            limit=limit,
        )


def run_cascade(spec: CascadeSpec, seed: int = 0) -> CascadeResult:
    """Realize stage counts, then score the surviving pointer coherence.

    Randomness is only consumed where a stage actually calls for it, so an
    all-fixed noiseless cascade gives the same result under every seed.
    """
    rng: Optional[np.random.Generator] = None

    def generator() -> np.random.Generator:
        nonlocal rng
        if rng is None:
            rng = _generator(seed)
        return rng

    def poisson(stage: StageSpec, what: str, parents: int, rate: float) -> int:
        # a product past the float range is refused as too large, not raised
        try:
            mean = parents * rate
        except OverflowError:
            mean = math.inf
        _check_draw(stage, what, mean, _POISSON_MEAN_MAX)
        return int(generator().poisson(mean))

    counts: list[int] = []
    parents = 0
    for idx, stage in enumerate(spec.stages):
        if idx == 0:
            n = (
                int(stage.parameter)
                if stage.kind == "fixed"
                else poisson(stage, "Poisson mean", 1, stage.parameter)
            )
            if spec.loss_rate > 0.0 and n > 0:
                _check_draw(stage, "binomial count", n, _INT64_MAX)
                n = int(generator().binomial(n, 1.0 - spec.loss_rate))
            if spec.dark_rate > 0.0:
                n += poisson(stage, "dark-count mean", 1, spec.dark_rate)
        elif stage.kind == "fixed":
            n = parents * int(stage.parameter)
        else:
            n = poisson(stage, "Poisson mean", parents, stage.parameter) if parents > 0 else 0
        counts.append(n)
        parents = n

    s0, s1 = spec.amplitudes
    base_mod = abs(s0) * abs(s1)
    base_log10 = math.log10(base_mod) if base_mod > 0.0 else -math.inf
    step_log10 = math.log10(spec.fidelity) if spec.fidelity > 0.0 else -math.inf

    stage_rows = []
    cum = 0
    for stage, n in zip(spec.stages, counts):
        cum += n
        log10_coh = base_log10 + _scaled(cum, step_log10) if cum > 0 else base_log10
        stage_rows.append(
            CascadeStage(stage.name, stage.kind, stage.parameter, n, cum, log10_coh)
        )

    total = cum
    log10_coh = stage_rows[-1].log10_coherence if stage_rows else base_log10
    try:
        coherence = base_mod * spec.fidelity ** total if total > 0 else base_mod
    except OverflowError:
        # a fidelity <= 1 - 1e-6 raised to a count past the float range
        # underflows to 0 long before
        coherence = 0.0

    degenerate = total == 0
    model: Optional[MeasurementModel] = None
    if not degenerate:
        quiet = ProductState((), ConstantTail(basis_vector(2, 0)), label="no-record")
        eta = spec.fidelity
        kicked = ProductState(
            (),
            ConstantTail(
                FactorVector((complex(eta), complex(math.sqrt(1.0 - eta * eta))))
            ),
            label="record",
        )
        model = MeasurementModel(spec.amplitudes, (quiet, kicked))

    return CascadeResult(
        spec=spec,
        seed=seed,
        stages=tuple(stage_rows),
        total_records=total,
        log10_coherence=log10_coh,
        coherence=coherence,
        degenerate=degenerate,
        model=model,
    )


def cascade_stage_report(result: CascadeResult) -> tuple[dict, ...]:
    """Per-stage rows ready for delimited or JSON output."""
    return tuple(
        {
            "stage": s.name,
            "kind": s.kind,
            "parameter": s.parameter,
            "count": s.count,
            "cumulative_records": s.cumulative_records,
            "log10_coherence": s.log10_coherence,
        }
        for s in result.stages
    )
