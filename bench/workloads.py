"""Seeded generators for the four benchmark workloads.

A workload is a sequence of rounds.  Every round of a workload has the same
fixed list of slots (operation kind, input shape, size rung), so each round
costs about the same on any seed; the seed only draws the numbers inside
each slot: vectors, decay parameters, thresholds, +-5% jitter on sizes, and
the order of the slots.  Round ``r`` is generated from ``(seed, workload,
r % POOL)``, so runs longer than ``POOL`` rounds repeat inputs, and the
checker compares each repeat with its first run bit for bit.

An ``Op`` carries the call to time (``run``), the sites it asks for, and a
``check`` that turns the call's output into named pass/fail results.  The
program only ever sees generated states, sequences, operators, models and
JSON files; all references are computed here or in ``reference``.

Timed rounds hold only inputs the program answers correctly today.  Inputs
that hit a defect the ROADMAP already records are drawn from the same seed
by ``known_defects`` instead; the harness runs and checks them after the
timed loop and reports them by name, apart from the run's ``correct`` flag.
"""

from __future__ import annotations

import io
import math
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import qsectors as q
from qsectors import cli, oracle, serialize

import reference as ref
from reference import RTOL, StateSpec, TailSpec

POOL = 8
ORACLE_TOL = 1e-10

WORKLOADS = ("cli-calls", "long-walk", "wide-brackets", "verdicts")

# Defects the known-defect probes reproduce, with where they are recorded.
KNOWN_DEFECTS = {
    "horizon-tie": "ROADMAP item 4: at an exact tie the horizon and the truncated overlap disagree by one site",
    "declared-late-onset": "ROADMAP item 2: declared classes stop on leading ones and return a wrong ConvergesTo",
    "asymptotic-rank": "ROADMAP item 2: asymptotic_overlap drops the declared rank and stops 16 sites past the prefix",
    "model-round-trip": "serialize re-derives a parametric tail's deviation as (limit+dev)-limit, so a model document does not round-trip byte for byte",
}


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list]  # -> [(check name, passed)]
    sites: int = 0


def _jitter(rng, rung: float, scale: float, low: int = 1) -> int:
    return max(low, int(round(rung * scale * rng.uniform(0.95, 1.05))))


def _unit(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _orth_unit(rng, u: np.ndarray) -> np.ndarray:
    v = _unit(rng, len(u))
    v = v - np.vdot(u, v) * u
    return v / np.linalg.norm(v)


def _tilted(rng, u: np.ndarray, per_site_log: float) -> np.ndarray:
    """Unit vector w with |<u|w>| = exp(per_site_log) and a random phase."""
    theta = math.acos(math.exp(per_site_log))
    phase = np.exp(1j * rng.uniform(-0.01, 0.01))
    return phase * (math.cos(theta) * u + math.sin(theta) * _orth_unit(rng, u))


def _prefix(rng, d: int, lo: int, hi: int) -> np.ndarray:
    n = int(rng.integers(lo, hi + 1))
    return np.array([_unit(rng, d) for _ in range(n)]).reshape(n, d)


def _tail(rng, kind: str, limit: np.ndarray, cutoff: int) -> TailSpec:
    """Canonical tail toward ``limit``; factors are convex mixes of unit
    vectors, so no factor has norm above 1."""
    if kind == "constant":
        return TailSpec("constant", limit)
    # small enough that the deviation adds O(10) to the walk's log decay,
    # so the product stays representable at the cutoff
    dev = min(0.3, 50.0 / cutoff) * (_unit(rng, len(limit)) - limit)
    if kind == "geometric":
        # the deviation fades over a few per cent of the walk
        ratio = float(math.exp(-rng.uniform(20.0, 60.0) / max(cutoff, 100)))
        return TailSpec("geometric", limit, dev, ratio=ratio, scale=0.6)
    if kind == "p-series":
        return TailSpec("p-series", limit, dev, p=float(rng.uniform(1.2, 3.0)), scale=0.6)
    rank = int(cutoff * rng.uniform(0.4, 0.6))
    return TailSpec("eventually-constant", limit, dev, rank=rank, scale=0.6)


def _decode(spec: StateSpec) -> q.ProductState:
    return serialize.decode_state(serialize.loads(serialize.dumps(spec.doc())))


def _guard(name: str, fn: Callable[[], bool]) -> tuple[str, bool]:
    try:
        return name, bool(fn())
    except Exception:  # a check that cannot run counts as failed
        return name, False


def _oracle_overlap(bra, ket, n: int, overlap=q.truncated_overlap) -> bool:
    got = overlap(bra, ket, n)
    want = oracle.dense_overlap(oracle.densify(bra, n), oracle.densify(ket, n))
    return abs(got - want) <= ORACLE_TOL


def _oracle_density(model, n: int) -> bool:
    """Off-diagonal elements against dense branch overlaps.

    Diagonals are the pointer probabilities by definition, so only the
    coherences c_i conj(c_j) <b_j|b_i> are compared."""
    got = q.truncated_density(model, n).matrix
    dense = [oracle.densify(b, n) for b in model.branches]
    c = model.coefficients
    for i in range(model.n_outcomes):
        for j in range(i + 1, model.n_outcomes):
            want = c[i] * c[j].conjugate() * oracle.dense_overlap(dense[j], dense[i])
            if abs(got[i, j] - want) > ORACLE_TOL:
                return False
    return True


def _oracle_sites(dim: int, n: int, budget: int = 2**14) -> int:
    """Sites a dense cross-check covers: a slice well inside the oracle's
    budget, small enough to keep the checker fast."""
    return max(1, min(n, int(math.log(budget) / math.log(dim))))


def _sweep_agrees(sweep, want: list) -> bool:
    for value, log_mod, (r_log, r_arg, r_zero) in zip(sweep.values, sweep.log_modulus, want):
        if not ref.log_agrees(log_mod, -math.inf if r_zero else r_log, RTOL):
            return False
        if not ref.value_agrees(value, r_log, r_arg, r_zero, RTOL):
            return False
    return len(sweep.values) == len(want)


class Workload:
    """Rounds of ops drawn from one seed; subclasses fill ``make_round``."""

    name = ""
    index = 0

    def __init__(self, seed: int, root: str, smoke: bool) -> None:
        self.seed = seed
        self.root = root
        self.smoke = smoke
        self.scale = 1e-3 if smoke else 1.0
        self._rounds: dict[int, list[Op]] = {}
        self.traced = False

    def round(self, r: int) -> list[Op]:
        key = r % POOL
        if key not in self._rounds:
            rng = np.random.default_rng([self.seed, self.index, key])
            ops = self.make_round(rng, key)
            self._rounds[key] = [ops[i] for i in rng.permutation(len(ops))]
        return self._rounds[key]

    def make_round(self, rng, r: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        """One round at smoke sizes, so every code path is imported and hot."""
        return type(self)(self.seed, self.root, smoke=True).round(0)

    def known_defects(self) -> list[tuple[str, Op]]:
        """(KNOWN_DEFECTS key, op) pairs whose checks fail while the defect stands."""
        return []

    def _defect_rng(self):
        return np.random.default_rng([self.seed, self.index, 2000])

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# long-walk: one term pair, 1e3..1e6 sites


# Six slots cost under 0.03 s and six over 0.15 s; the seven constant-tail
# sweeps between them (about 0.06 s each) hold the median of a round, so
# op_p50_s is the median of seven samples per round, not of one.
LONG_WALK_SLOTS = (
    ("truncated_overlap", "constant", 3e5),
    ("truncated_overlap", "p-series", 3e4),
    ("truncated_overlap", "eventually-constant", 1e3),
    ("overlap_sweep", "geometric", 3e4),
) + (("overlap_sweep", "constant", 2e4),) * 7 + (
    ("expectation_sweep", "p-series", 1e4),
    ("expectation_sweep", "constant", 1e3),
    ("horizon", "constant", 1e5),
    ("horizon", "dyadic", 1e3),
    ("horizon", "geometric", 3e3),
    ("density", "eventually-constant", 1e5),
    ("density", "geometric", 3e3),
    ("spin_sweep", "blocks", 2.0**21),
)


class LongWalk(Workload):
    name = "long-walk"
    index = 1

    def make_round(self, rng, r):
        ops = []
        for kind, tail, rung in LONG_WALK_SLOTS:
            ops.append(getattr(self, "_" + kind)(rng, tail, rung))
        return ops

    def known_defects(self):
        rng = self._defect_rng()
        return [("horizon-tie", self._horizon(rng, "dyadic-tie", 1e3)) for _ in range(12)]

    def _pair(self, rng, tail_kind, n):
        """Reference bra (constant tail) and a ket drifting away from it."""
        d = 2
        u = _unit(rng, d)
        # smoke sizes shrink the decay with the walk: a per-site overlap near
        # exp(-20) is too ill-conditioned for the 1e-9 reference checks
        total_log = rng.uniform(5.0, 400.0) * self.scale
        w = _tilted(rng, u, -total_log / max(n, 1))
        bra = StateSpec(_prefix(rng, d, 0, 8), TailSpec("constant", u), label="reference")
        ket = StateSpec(_prefix(rng, d, 0, 8), _tail(rng, tail_kind, w, n), label="drifted")
        return bra, ket

    def _truncated_overlap(self, rng, tail_kind, rung):
        n = _jitter(rng, rung, self.scale)
        bra_s, ket_s = self._pair(rng, tail_kind, n)
        bra, ket = _decode(bra_s), _decode(ket_s)
        name = "closed-form" if tail_kind == "constant" else "vectorized-reference"

        def check(out):
            ((lg, arg, zero),) = ref.pair_logs(bra_s, ket_s, [n])
            small = _oracle_sites(2, n)
            return [
                _guard(name, lambda: ref.value_agrees(out, lg, arg, zero, RTOL)),
                _guard("oracle", lambda: _oracle_overlap(bra, ket, small)),
            ]

        return Op("truncated_overlap", lambda: q.truncated_overlap(bra, ket, n), check, n)

    def _overlap_sweep(self, rng, tail_kind, rung):
        n = _jitter(rng, rung, self.scale, low=2)
        bra_s, ket_s = self._pair(rng, tail_kind, n)
        bra, ket = _decode(bra_s), _decode(ket_s)
        cuts = sorted({max(1, n * k // 100) for k in range(1, 101)})

        def check(out):
            want = ref.pair_logs(bra_s, ket_s, cuts)
            small = _oracle_sites(2, n)
            return [
                _guard("vectorized-reference", lambda: _sweep_agrees(out, want)),
                _guard("oracle", lambda: _oracle_overlap(bra, ket, small)),
            ]

        return Op("overlap_sweep", lambda: q.overlap_sweep(bra, ket, cuts), check, n)

    def _expectation_sweep(self, rng, tail_kind, rung):
        n = _jitter(rng, rung, self.scale, low=2)
        _, state_s = self._pair(rng, tail_kind, n)
        state = _decode(state_s)
        d = state_s.dim
        delta = rng.uniform(5.0, 400.0) / n
        v = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        phases = np.exp(1j * rng.uniform(-0.05, 0.05, size=d) - delta)
        h = (v * phases) @ v.conj().T
        prefix_ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                      for _ in range(int(rng.integers(0, 5)))]
        coeff = complex(rng.normal(), rng.normal())
        op = q.FactoredOperator((
            q.OperatorTerm(
                coeff,
                tuple(q.FactorOperator(m) for m in prefix_ops),
                q.ConstantOperatorTail(q.FactorOperator(h)),
            ),
        ))
        cuts = sorted({max(1, n * k // 10) for k in range(1, 11)})

        def brackets(s, e):
            f = state_s.factors(s, e)
            g = np.einsum("ni,ij,nj->n", np.conj(f), h, f)
            for site in range(s, min(e, len(prefix_ops))):
                row = f[site - s]
                g[site - s] = np.vdot(row, prefix_ops[site] @ row)
            return g

        def check(out):
            want = [
                (lg + math.log(abs(coeff)), arg + math.atan2(coeff.imag, coeff.real), z)
                for lg, arg, z in ref.bracket_logs(brackets, cuts)
            ]
            small = _oracle_sites(2, n, 2**8)

            def dense():
                got = q.expectation_sweep(op, state, [small]).values[0]
                want_d = oracle.dense_expectation(
                    oracle.densify_operator(op, small), oracle.densify(state, small)
                )
                return abs(got - want_d) <= ORACLE_TOL * max(1.0, abs(want_d))

            return [
                _guard("vectorized-reference", lambda: _sweep_agrees(out, want)),
                _guard("oracle", dense),
            ]

        return Op("expectation_sweep", lambda: q.expectation_sweep(op, state, cuts), check, n)

    def _model(self, rng, tail_kind, n):
        """Two-outcome pointer amplitudes and the branch pair of ``_pair``."""
        bra_s, ket_s = self._pair(rng, tail_kind, n)
        c0 = rng.uniform(0.2, 0.8) ** 0.5
        coeffs = (complex(c0), complex((1.0 - c0 * c0) ** 0.5) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        return coeffs, bra_s, ket_s

    def _horizon(self, rng, tail_kind, rung):
        if tail_kind in ("dyadic", "dyadic-tie"):
            # basis-aligned record states: the coherence after n sites is
            # exactly 2**-(a*n+1).  A tie puts eps on the coherence at the
            # target; otherwise a power of two strictly between the
            # coherences before and at the target (a >= 2 leaves room).
            tie = tail_kind == "dyadic-tie"
            a = int(rng.integers(1, 3) if tie else rng.integers(2, 4))
            target = _jitter(rng, rung * 0.8 / a, self.scale)
            u = np.array([1.0, 0.0], dtype=complex)
            w = np.array([2.0**-a, math.sqrt(1.0 - 4.0**-a)], dtype=complex)
            b0_s = StateSpec(np.zeros((0, 2), dtype=complex), TailSpec("constant", u))
            b1_s = StateSpec(np.zeros((0, 2), dtype=complex), TailSpec("constant", w))
            coeffs = (complex(2**-0.5), complex(2**-0.5))
            eps = 2.0 ** -(a * target + 1) if tie else 2.0 ** -(a * target)
        else:
            target = _jitter(rng, rung, self.scale, low=2)
            coeffs, b0_s, b1_s = self._model(rng, tail_kind, target)
            base = abs(coeffs[0]) * abs(coeffs[1])
            # a threshold strictly inside the last site's decay step, so the
            # horizon is the target and no rounding tie is manufactured
            (before, _, _), (at, _, _) = ref.pair_logs(b1_s, b0_s, [target - 1, target])
            log_eps = math.log(base) + at + rng.uniform(0.05, 0.95) * (before - at)
            eps = math.exp(log_eps)
            if tail_kind == "constant" and rng.random() < 0.5:
                # an exact power of two; the closed-form horizon costs nothing either way
                eps = math.ldexp(1.0, round(log_eps / math.log(2.0)))
        b0, b1 = _decode(b0_s), _decode(b1_s)
        model = q.MeasurementModel(coeffs, (b0, b1))
        base = abs(coeffs[0]) * abs(coeffs[1])

        def check(out):
            def agree():
                if out == math.inf:
                    return False
                h = int(out)
                below = base * abs(q.truncated_overlap(b1, b0, h)) < eps
                before = h == 0 or base * abs(q.truncated_overlap(b1, b0, h - 1)) >= eps
                return below and before

            return [_guard("horizon-vs-truncated-overlap", agree)]

        return Op("decoherence_horizon", lambda: q.decoherence_horizon(model, eps), check, target)

    def _density(self, rng, tail_kind, rung):
        n = _jitter(rng, rung, self.scale)
        coeffs, b0_s, b1_s = self._model(rng, tail_kind, n)
        b0, b1 = _decode(b0_s), _decode(b1_s)
        model = q.MeasurementModel(coeffs, (b0, b1))

        def check(out):
            def reference():
                ((lg, arg, zero),) = ref.pair_logs(b1_s, b0_s, [n])
                m = out.matrix
                scale = coeffs[0] * coeffs[1].conjugate()
                diag = m[0, 0] == abs(coeffs[0]) ** 2 and m[1, 1] == abs(coeffs[1]) ** 2
                return diag and ref.value_agrees(m[0, 1] / scale, lg, arg, zero, RTOL)

            small = _oracle_sites(2, n)
            return [
                _guard("vectorized-reference", reference),
                _guard("oracle", lambda: _oracle_density(model, small)),
            ]

        return Op("truncated_density", lambda: q.truncated_density(model, n), check, n)

    def _spin_sweep(self, rng, _tail, rung):
        period = int(rng.integers(8, 17))
        rotated = int(rng.choice([p for p in range(1, period) if math.gcd(p, period) == 1]))
        blocks = _jitter(rng, rung * (1e-3 if self.smoke else 1.0) / 2.0**period, 1.0)
        counts = sorted({period * max(1, blocks * k // 100) for k in range(1, 101)})
        scenario = q.SpinChainScenario(Fraction(rotated, period))

        def check(out):
            half_ln2 = 0.5 * math.log(2.0)
            want = [(-(rotated * n // period) * half_ln2, 0.0, False) for n in counts]

            def dense():
                a, b = scenario.states()
                got = oracle.dense_overlap(oracle.densify(a, 1), oracle.densify(b, 1))
                return abs(got - scenario.closed_overlap(period)) <= ORACLE_TOL

            return [
                _guard("closed-form", lambda: _sweep_agrees(out, want)),
                _guard("oracle", dense),
            ]

        return Op("spin_sweep", lambda: scenario.sweep(counts), check, counts[-1])


# ---------------------------------------------------------------------------
# wide-brackets: composites with 2..16 terms per side, 100..2000 sites

# (kind, bra terms, ket terms or outcomes, dim, cutoff).  Five 8-outcome
# density slots sit between five cheaper and five dearer slots and hold the
# median of a round, so op_p50_s is a median over five samples a round, not
# one (a single op of this size varies by +-15% from call to call).
WIDE_SLOTS = (
    ("composite_overlap", 16, 16, 2, 1000),
    ("composite_overlap", 4, 4, 16, 500),
    ("composite_overlap", 2, 2, 8, 100),
    ("distance", 8, 8, 4, 500),
    ("distance", 2, 2, 64, 250),
    ("overlap_sweep", 8, 16, 2, 1000),
    ("overlap_sweep", 2, 4, 32, 600),
) + (("density", 8, 0, 4, 1000),) * 5 + (
    ("density", 4, 0, 8, 2000),
    ("expectation_sweep", 8, 0, 8, 2000),
    ("expectation_sweep", 4, 0, 16, 2000),
)
WIDE_INPUT_SETS = 2


class WideBrackets(Workload):
    name = "wide-brackets"
    index = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._inputs: dict[int, list] = {}

    def inputs(self, key: int) -> list:
        """Inputs for every slot; rounds share WIDE_INPUT_SETS sets of them."""
        key %= WIDE_INPUT_SETS
        if key not in self._inputs:
            rng = np.random.default_rng([self.seed, self.index, 1000 + key])
            self._inputs[key] = [self._make_input(rng, slot) for slot in WIDE_SLOTS]
        return self._inputs[key]

    def _length(self, cutoff):
        return max(4, int(cutoff * (0.01 if self.smoke else 1.0)))

    def _terms(self, rng, base: np.ndarray, n_terms: int) -> list:
        """Coefficients and StateSpecs close to a shared base, so sums interfere."""
        length, d = base.shape
        sigma = math.sqrt(rng.uniform(0.5, 4.0) / length)
        out = []
        for _ in range(n_terms):
            rows = base + sigma * (rng.normal(size=base.shape) + 1j * rng.normal(size=base.shape))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            spec = StateSpec(rows, TailSpec("constant", base[-1] / np.linalg.norm(base[-1])))
            out.append((complex(rng.normal(), rng.normal()) / n_terms, spec))
        return out

    @staticmethod
    def _product(spec: StateSpec) -> q.ProductState:
        prefix = tuple(q.FactorVector(tuple(row.tolist())) for row in spec.prefix)
        return q.ProductState(prefix, q.ConstantTail(q.FactorVector(tuple(spec.tail.limit.tolist()))))

    def _composite(self, terms) -> q.CompositeState:
        return q.CompositeState(tuple((c, self._product(s)) for c, s in terms))

    def _make_input(self, rng, slot):
        kind, t_bra, t_ket, d, cutoff = slot
        length = self._length(cutoff)
        base = np.array([_unit(rng, d) for _ in range(length)])
        if kind in ("composite_overlap", "distance", "overlap_sweep"):
            bra_t = self._terms(rng, base, t_bra)
            ket_t = self._terms(rng, base, t_ket)
            return (bra_t, ket_t, self._composite(bra_t), self._composite(ket_t))
        if kind == "density":
            outcomes = t_bra
            branches = []
            for _ in range(outcomes):
                rows = np.array([_unit(rng, d) for _ in range(length)])
                branches.append(StateSpec(rows, TailSpec("constant", _unit(rng, d))))
            amps = rng.normal(size=outcomes) + 1j * rng.normal(size=outcomes)
            amps /= np.linalg.norm(amps)
            coeffs = tuple(complex(c) for c in amps)
            model = q.MeasurementModel(coeffs, tuple(self._product(b) for b in branches))
            return (coeffs, branches, model)
        # expectation_sweep: a product state and an operator with t_bra terms
        sigma = math.sqrt(rng.uniform(0.5, 4.0) / length)
        state_s = StateSpec(base, TailSpec("constant", base[-1]))
        terms = []
        for _ in range(t_bra):
            k = int(rng.integers(0, 17))
            prefix = []
            for _ in range(k):
                g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                prefix.append(np.eye(d) + sigma * g)
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            tail = np.eye(d) + sigma * (g + g.conj().T) / 2
            terms.append((complex(rng.normal(), rng.normal()), prefix, tail))
        op = q.FactoredOperator(tuple(
            q.OperatorTerm(
                c,
                tuple(q.FactorOperator(m) for m in prefix),
                q.ConstantOperatorTail(q.FactorOperator(tail)),
            )
            for c, prefix, tail in terms
        ))
        return (state_s, terms, self._product(state_s), op)

    def make_round(self, rng, r):
        ops = []
        for slot, inp in zip(WIDE_SLOTS, self.inputs(r)):
            kind = slot[0]
            length = self._length(slot[4])
            n = max(2, int(length * rng.uniform(0.9, 1.0)))
            ops.append(getattr(self, "_" + kind)(inp, n))
        return ops

    def _composite_overlap(self, inp, n):
        bra_t, ket_t, bra, ket = inp

        def check(out):
            def reference():
                ((value, _, scale),) = ref.composite_sweep(bra_t, ket_t, [n])
                return ref.close_complex(out, value, scale)

            return [
                _guard("vectorized-reference", reference),
                _guard("oracle", lambda: _oracle_overlap(
                    bra, ket, _oracle_sites(bra_t[0][1].dim, n), q.composite_overlap)),
            ]

        return Op("composite_overlap", lambda: q.composite_overlap(bra, ket, n), check, n)

    def _distance(self, inp, n):
        bra_t, ket_t, bra, ket = inp

        def check(out):
            def reference():
                parts = [
                    ref.composite_sweep(x, y, [n])[0] for x, y in
                    ((bra_t, bra_t), (ket_t, ket_t), (bra_t, ket_t))
                ]
                want = (parts[0][0] + parts[1][0] - 2.0 * parts[2][0]).real
                scale = parts[0][2] + parts[1][2] + 2.0 * parts[2][2]
                return abs(out - want) <= RTOL * scale

            return [
                _guard("vectorized-reference", reference),
                _guard("distance-symmetric", lambda: q.distance(ket, bra, n) == out),
            ]

        return Op("distance", lambda: q.distance(bra, ket, n), check, n)

    def _overlap_sweep(self, inp, n):
        bra_t, ket_t, bra, ket = inp
        cuts = sorted({max(1, n * k // 50) for k in range(1, 51)})

        def check(out):
            def reference():
                want = ref.composite_sweep(bra_t, ket_t, cuts)
                for got, (value, _, scale) in zip(out.values, want):
                    if not ref.close_complex(got, value, scale):
                        return False
                return len(out.values) == len(want)

            return [_guard("vectorized-reference", reference)]

        return Op("overlap_sweep", lambda: q.overlap_sweep(bra, ket, cuts), check, n)

    def _density(self, inp, n):
        coeffs, branches, model = inp

        def check(out):
            def reference():
                m = out.matrix
                for i in range(len(coeffs)):
                    if m[i, i] != abs(coeffs[i]) ** 2:
                        return False
                    for j in range(i + 1, len(coeffs)):
                        ((lg, arg, zero),) = ref.pair_logs(branches[j], branches[i], [n])
                        scale = coeffs[i] * coeffs[j].conjugate()
                        if not ref.value_agrees(m[i, j] / scale, lg, arg, zero, RTOL):
                            return False
                return True

            small = _oracle_sites(branches[0].dim, n)
            return [
                _guard("vectorized-reference", reference),
                _guard("oracle", lambda: _oracle_density(model, small)),
            ]

        return Op("truncated_density", lambda: q.truncated_density(model, n), check, n)

    def _expectation_sweep(self, inp, n):
        state_s, terms, state, op = inp
        cuts = sorted({max(1, n * k // 10) for k in range(1, 11)})

        def check(out):
            def reference():
                per_term = []
                for c, prefix, tail in terms:
                    def brackets(s, e, prefix=prefix, tail=tail):
                        f = state_s.factors(s, e)
                        g = np.einsum("ni,ij,nj->n", np.conj(f), tail, f)
                        for site in range(s, min(e, len(prefix))):
                            row = f[site - s]
                            g[site - s] = np.vdot(row, prefix[site] @ row)
                        return g

                    per_term.append((c, ref.bracket_logs(brackets, cuts)))
                for k, got in enumerate(out.values):
                    parts = [c * ref.value_from_logs(*logs[k]) for c, logs in per_term]
                    scale = sum(abs(x) for x in parts)
                    if not ref.close_complex(got, sum(parts), scale):
                        return False
                return len(out.values) == len(cuts)

            small = _oracle_sites(state_s.dim, n, 2**8)

            def dense():
                got = q.expectation_sweep(op, state, [small]).values[0]
                want = oracle.dense_expectation(
                    oracle.densify_operator(op, small), oracle.densify(state, small)
                )
                return abs(got - want) <= ORACLE_TOL * max(1.0, abs(want))

            return [_guard("vectorized-reference", reference), _guard("oracle", dense)]

        return Op("expectation_sweep", lambda: q.expectation_sweep(op, state, cuts), check, n)


# ---------------------------------------------------------------------------
# verdicts: many small decisions, each decoding or building its own inputs


SEQUENCE_FAMILIES = ("geometric-one-plus", "p-series-one-plus", "phase-drift", "constant-value")
DECLARED = ("geometric-modulus", "p-series-log-modulus", "eventually-one",
            "bounded-nonsummable-argument", "custom")
# Classes whose verdict is computed from the terms; a tail that starts with a
# run of ones makes them stop early (ROADMAP item 2), so in timed rounds their
# tails deviate from the first tail term on.
CERTIFIED = DECLARED[:3]
LATE_ONSET = (45, 60)


# Term budget of each classify_product slot: rungs over 1e4..1e5, +-10% jitter.
SERIALIZED_BUDGETS = {"geometric-one-plus": 1e4, "p-series-one-plus": 3e4,
                      "phase-drift": 1e5, "constant-value": 1e4}
DECLARED_BUDGETS = {"geometric-modulus": 3e4, "p-series-log-modulus": 1e4, "eventually-one": 1e5,
                    "bounded-nonsummable-argument": 3e4, "custom": 1e5}


def _budget(rng, rung: float, smoke: bool) -> int:
    return _jitter(rng, rung, 0.05 if smoke else 1.0, low=100)


def _verdict_json(verdict) -> str:
    return serialize.dumps(serialize.encode_verdict(verdict))


class Verdicts(Workload):
    name = "verdicts"
    index = 3

    def make_round(self, rng, r):
        ops = [self._serialized_product(rng, fam) for fam in SEQUENCE_FAMILIES]
        ops += [self._declared_product(rng, klass) for klass in DECLARED]
        ops += [self._sequence_probe(rng), self._sequence_probe(rng), self._sequence_certified(rng)]
        ops += [self._finite_change_sector(rng), self._finite_change_sector(rng), self._tail_sector(rng)]
        ops += [self._asymptotic(rng), self._sector_action(rng), self._sector_action(rng),
                self._tail_sector(rng), self._model(rng)]
        # ten ops under 1 ms and ten over 4 ms leave five like-priced evolve
        # ops (about 2.5 ms) in the middle of the round, so op_p50_s is a
        # median over five samples a round and no bimodal slot can move it
        ops += [self._evolve(rng) for _ in range(5)]
        return ops

    def known_defects(self):
        rng = self._defect_rng()
        out = []
        for _ in range(2):
            out += [("declared-late-onset", self._declared_product(rng, k, late=True)) for k in CERTIFIED]
            out.append(("asymptotic-rank", self._asymptotic(rng, late=True)))
            out.append(("model-round-trip", self._model(rng, parametric=True)))
        return out

    # -- products ----------------------------------------------------------

    def _serialized_product(self, rng, family):
        prefix = [complex(1 + 0.3 * rng.normal(), 0.3 * rng.normal())
                  for _ in range(int(rng.integers(0, 6)))]
        c = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3))
        budget = _budget(rng, SERIALIZED_BUDGETS[family], self.smoke)
        if family == "geometric-one-plus":
            ratio = float(rng.uniform(0.3, 0.9))
            tail = {"kind": family, "coefficient": ref.cjson(c), "ratio": ratio}
            expected = ("ConvergesTo", lambda: ref.mp_geometric_product(c, ratio, len(prefix) + 1))
        elif family == "p-series-one-plus":
            p = float(rng.uniform(1.5, 2.0))
            tail = {"kind": family, "coefficient": ref.cjson(c), "p": p}
            expected = ("ConvergesTo", lambda: complex(
                np.exp(ref.mp_p_series_log(c, p, len(prefix) + 1))))
        elif family == "phase-drift":
            p = float(rng.uniform(0.5, 1.0))
            tail = {"kind": family, "coefficient": float(rng.uniform(0.2, 2.0)), "p": p}
            expected = ("QuasiConvergesToZero", None)
        else:
            z = [complex(0.9, 0.1), 1 + 0j, complex(1.1, 0.0)][int(rng.integers(0, 3))]
            tail = {"kind": "constant-value", "value": ref.cjson(z)}
            if z == 1:
                expected = ("ConvergesTo", lambda: 1 + 0j)
            elif abs(z) < 1:
                expected = ("ConvergesTo", lambda: 0j)
            else:
                expected = ("Diverges", None)
        text = serialize.dumps({"prefix": [ref.cjson(z) for z in prefix], "tail": tail})
        prefix_prod = ref.mp_finite_product(prefix) if prefix else 1 + 0j

        def run():
            seq = serialize.decode_sequence(serialize.loads(text))
            verdict = q.classify_product(seq, budget=budget)
            return verdict.kind, verdict.value, _verdict_json(verdict)

        return Op("classify_product", run,
                  lambda out: [_product_check(out, expected, prefix_prod)], budget)

    def _declared_product(self, rng, klass, late=False):
        budget = _budget(rng, DECLARED_BUDGETS[klass], self.smoke)
        c = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3))
        prefix = tuple(complex(1 + 0.2 * rng.normal(), 0.2 * rng.normal())
                       for _ in range(int(rng.integers(0, 4))))
        if late:
            onset = int(rng.integers(LATE_ONSET[0], LATE_ONSET[1] + 1))
        elif klass in CERTIFIED:
            onset = int(rng.integers(0, len(prefix) + 2))
        else:
            onset = int(rng.integers(0, 61))
        first = max(onset, len(prefix) + 1)
        kwargs = {}
        if klass == "geometric-modulus":
            # past a late onset only a ratio near 1 leaves a visible deviation
            ratio = float(rng.uniform(0.95, 0.99) if late else rng.uniform(0.3, 0.9))
            kwargs["ratio"] = ratio
            term = _onset_fn(onset, lambda n: 1.0 + c * ratio**n)
            expected = ("ConvergesTo", lambda: ref.mp_geometric_product(c, ratio, first))
        elif klass == "p-series-log-modulus":
            p = float(rng.uniform(1.5, 2.0))
            kwargs["p"] = p
            term = _onset_fn(onset, lambda n: 1.0 + c * float(n) ** (-p))
            expected = ("ConvergesTo", lambda: complex(np.exp(ref.mp_p_series_log(c, p, first))))
        elif klass == "eventually-one":
            width = int(rng.integers(1, 20))
            values = [complex(1 + 0.3 * rng.normal(), 0.3 * rng.normal()) for _ in range(width)]
            term = _onset_fn(onset, lambda n: values[n - onset] if n - onset < width else 1 + 0j)
            kept = [values[n - onset] for n in range(first, onset + width)]
            expected = ("ConvergesTo", lambda: ref.mp_finite_product(kept))
        elif klass == "bounded-nonsummable-argument":
            a = float(rng.uniform(0.2, 2.0))
            term = _onset_fn(onset, lambda n: complex(math.cos(a / n), math.sin(a / n)))
            expected = ("QuasiConvergesToZero", None)
        else:
            ratio = float(rng.uniform(0.2, 0.5))
            term = _onset_fn(onset, lambda n: 1.0 + c * ratio**n)
            expected = ("custom", lambda: ref.mp_geometric_product(c, ratio, first))
        prefix_prod = ref.mp_finite_product(prefix) if prefix else 1 + 0j

        def run():
            tail = q.ClosedFormTail(term_fn=term, klass=klass, **kwargs)
            verdict = q.classify_product(q.ComplexSequenceSpec(prefix, tail), budget=budget)
            return verdict.kind, verdict.value, _verdict_json(verdict)

        return Op("classify_product", run,
                  lambda out: [_product_check(out, expected, prefix_prod)], budget)

    # -- sequences and sectors -------------------------------------------------

    def _state_text(self, spec: StateSpec) -> str:
        return serialize.dumps(spec.doc())

    def _sequence_probe(self, rng):
        d = int(rng.integers(2, 5))
        u = _unit(rng, d)
        spec = StateSpec(_prefix(rng, d, 0, 6),
                         TailSpec("p-series", u, 0.3 * _unit(rng, d),
                                  p=float(rng.uniform(0.3, 1.0)), scale=0.3))
        text = self._state_text(spec)

        def run():
            verdict = q.classify_sequence(serialize.decode_state(serialize.loads(text)))
            return verdict.kind, verdict.evidence.get("proven"), _verdict_json(verdict)

        # a numeric probe proves nothing, so its verdict must say so
        return Op("classify_sequence", run,
                  lambda out: [_guard("declared-provenance", lambda: out[1] is False)], 8192)

    def _sequence_certified(self, rng):
        d = int(rng.integers(2, 5))
        u = _unit(rng, d)
        choice = int(rng.integers(0, 4))
        if choice == 0:
            tail = TailSpec("geometric", u, 0.3 * _unit(rng, d), ratio=float(rng.uniform(0.2, 0.9)), scale=0.3)
            want = "NonTrivialConvergentSequence"
        elif choice == 1:
            tail = TailSpec("eventually-constant", u, 0.3 * _unit(rng, d), rank=int(rng.integers(1, 200)), scale=0.3)
            want = "NonTrivialConvergentSequence"
        elif choice == 2:
            tail = TailSpec("constant", 0.8 * u)
            want = "ConvergentSequence"
        else:
            tail = TailSpec("constant", 1.25 * u)
            want = "NotConvergentSequence"
        text = self._state_text(StateSpec(_prefix(rng, d, 0, 6), tail))

        def run():
            verdict = q.classify_sequence(serialize.decode_state(serialize.loads(text)))
            return verdict.kind, verdict.evidence.get("proven"), _verdict_json(verdict)

        return Op("classify_sequence", run,
                  lambda out: [_guard("expected-class", lambda: out[0] == want and out[1] is True)])

    def _finite_change_sector(self, rng):
        d = int(rng.integers(2, 5))
        u = _unit(rng, d)
        top = int(1000 * (0.05 if self.smoke else 1.0))
        # unit factors before the rank, so unchanged sites bracket to 1, and
        # every materialized tail site builds a vector
        tail = TailSpec("eventually-constant", u, _unit(rng, d) - u,
                        rank=int(rng.integers(top, top + 200)), scale=2.0)
        text = self._state_text(StateSpec(_prefix(rng, d, 0, 6), tail))
        sites = sorted({int(s) for s in rng.integers(top * 9 // 10, top + 1, size=int(rng.integers(1, 5)))})
        changes = {s: tuple(_unit(rng, d).tolist()) for s in sites}

        def run():
            base = serialize.decode_state(serialize.loads(text))
            moved = q.apply_finite_change(base, {s: q.FactorVector(v) for s, v in changes.items()})
            verdict = q.same_sector(base, moved)
            return verdict.kind, verdict.certificate.get("differing_prefix_indices"), _verdict_json(verdict)

        def check(out):
            return [_guard("expected-sector", lambda: out[0] == "SameSector" and tuple(out[1]) == tuple(sites))]

        return Op("same_sector", run, check, sites[-1] + 1)

    def _tail_sector(self, rng):
        d = int(rng.integers(2, 5))
        u = _unit(rng, d)
        same = rng.random() < 0.5
        if same:
            other = TailSpec("p-series", u, 0.3 * _orth_unit(rng, u), p=float(rng.uniform(1.5, 3.0)), scale=0.3)
        else:
            other = TailSpec("constant", _tilted(rng, u, -rng.uniform(0.01, 1.0)))
        a = self._state_text(StateSpec(_prefix(rng, d, 0, 6), TailSpec("constant", u)))
        b = self._state_text(StateSpec(_prefix(rng, d, 0, 6), other))
        want = "SameSector" if same else "DifferentSector"

        def run():
            va = serialize.decode_state(serialize.loads(a))
            vb = serialize.decode_state(serialize.loads(b))
            verdict = q.same_sector(va, vb)
            return verdict.kind, _verdict_json(verdict)

        return Op("same_sector", run, lambda out: [_guard("expected-sector", lambda: out[0] == want)])

    def _asymptotic(self, rng, late=False):
        """Reference state against one whose declared eventually-constant tail
        deviates at a single site.  In timed rounds that site lies within 16
        sites of the prefix's end; ``late`` puts it 16-52 sites past, where the
        dropped rank (ROADMAP item 2) ends the walk before it."""
        d = int(rng.integers(2, 5))
        # a basis-vector limit brackets with itself to exactly 1
        u = np.eye(d, dtype=complex)[int(rng.integers(0, d))]
        # the prefix after apply_finite_change spans at most 8 sites
        onset = int(rng.integers(24, 61) if late else rng.integers(0, 16))
        rank = onset + int(rng.integers(1, 100))
        kick = _tilted(rng, u, -rng.uniform(0.01, 0.3))
        prefix = _prefix(rng, d, 0, 4)
        change_site = int(rng.integers(0, 8))
        change = _tilted(rng, u, -rng.uniform(0.01, 0.3))
        u_t, kick_t, change_t = (tuple(x.tolist()) for x in (u, kick, change))
        ref_text = self._state_text(StateSpec(prefix, TailSpec("constant", u)))

        def want():
            ref_s = StateSpec(prefix, TailSpec("constant", u))
            span = max(len(prefix), change_site + 1, onset + 1)
            bra = ref_s.factors(0, span)
            ket = ref_s.factors(0, span)
            ket[len(prefix):] = u
            if onset >= len(prefix):
                ket[onset] = kick
            ket[change_site] = change
            return ref.mp_finite_product(np.sum(np.conj(bra) * ket, axis=1))

        def run():
            bra = serialize.decode_state(serialize.loads(ref_text))
            limit = q.FactorVector(u_t)
            kicked = q.FactorVector(kick_t)
            tail = q.ParametricTail(
                dim=d,
                factor_fn=lambda n: kicked if n == onset else limit,
                limit=limit,
                decay=q.DecaySpec("eventually-constant", rank=rank, scale=1.0),
            )
            ket = q.apply_finite_change(q.ProductState(bra.prefix, tail), {change_site: q.FactorVector(change_t)})
            value = q.asymptotic_overlap(bra, ket)
            return value, serialize.dumps(serialize.encode_complex(value))

        def check(out):
            return [_guard("mpmath-reference", lambda: abs(out[0] - want()) <= 1e-9)]

        return Op("asymptotic_overlap", run, check)

    def _sector_action(self, rng):
        d = int(rng.integers(2, 5))
        u = _unit(rng, d)
        state_text = self._state_text(StateSpec(_prefix(rng, d, 0, 6), TailSpec("constant", u)))
        choice = int(rng.integers(0, 3))
        prefix_ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(int(rng.integers(1, 4)))]
        if choice == 0:
            tail = {"kind": "identity", "dim": d}
            want = "PreservesSector"
        elif choice == 1:
            tail = {"kind": "constant", "entries": [ref.cjson(z) for z in np.eye(d).reshape(-1)]}
            want = "PreservesSector"
        else:
            v = _orth_unit(rng, u)
            mix = np.eye(d) - np.outer(u, u.conj()) + np.outer(v, u.conj()) * 0.5 + np.outer(u, u.conj()) * 0.5
            tail = {"kind": "constant", "entries": [ref.cjson(z) for z in mix.reshape(-1)]}
            want = "LeavesSector"
        op_text = serialize.dumps({
            "type": "factored-operator",
            "terms": [{
                "coefficient": ref.cjson(complex(rng.normal(), rng.normal())),
                "prefix_ops": [[ref.cjson(z) for z in m.reshape(-1)] for m in prefix_ops],
                "tail": tail,
            }],
        })

        def run():
            op = serialize.decode_operator(serialize.loads(op_text))
            state = serialize.decode_state(serialize.loads(state_text))
            verdict = q.sector_action(op, state)
            return verdict.kind, _verdict_json(verdict)

        return Op("sector_action", run, lambda out: [_guard("expected-action", lambda: out[0] == want)])

    def _evolve(self, rng):
        d = 2
        n = _jitter(rng, 300, 0.05 if self.smoke else 1.0)
        u = _unit(rng, d)
        prefix = _prefix(rng, d, 3, 3)
        state_text = self._state_text(StateSpec(prefix, TailSpec("constant", u)))

        def herm():
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            return (g + g.conj().T) / 2

        prefix_h = [herm() for _ in range(2)]
        tail_h = herm()
        t = float(rng.uniform(0.001, 0.02))
        gen_text = serialize.dumps({
            "type": "factored-operator",
            "terms": [{
                "coefficient": ref.cjson(1.0),
                "prefix_ops": [[ref.cjson(z) for z in m.reshape(-1)] for m in prefix_h],
                "tail": {"kind": "constant", "entries": [ref.cjson(z) for z in tail_h.reshape(-1)]},
            }],
        })

        def want():
            spec = StateSpec(prefix, TailSpec("constant", u))
            f = spec.factors(0, n)
            total = 0.0
            arg = 0.0
            for site in range(n):
                h = prefix_h[site] if site < len(prefix_h) else tail_h
                g = np.vdot(f[site], ref.hermitian_exp(h, t) @ f[site])
                total += math.log(abs(g))
                arg += math.atan2(g.imag, g.real)
            return total, arg

        def run():
            gen = serialize.decode_operator(serialize.loads(gen_text))
            state = serialize.decode_state(serialize.loads(state_text))
            result = q.evolve(gen, state, t, n)
            return result.survival, serialize.dumps(serialize.encode_complex(result.survival))

        def check(out):
            def agree():
                lg, arg = want()
                return ref.value_agrees(out[0], lg, arg, False, 1e-8)

            def dense():
                gen = serialize.decode_operator(serialize.loads(gen_text))
                state = serialize.decode_state(serialize.loads(state_text))
                small = _oracle_sites(d, n, oracle.DENSE_OPERATOR_BUDGET)
                evolved = q.evolve(gen, state, t, small)
                want_d = oracle.dense_overlap(oracle.densify(state, small), oracle.densify(evolved.state, small))
                return abs(evolved.survival - want_d) <= ORACLE_TOL

            return [_guard("eigh-reference", agree), _guard("oracle", dense)]

        return Op("evolve", run, check, n)

    def _model(self, rng, parametric=False):
        """A MeasurementModel document to decode and re-encode.  Branches
        have constant tails; ``parametric`` gives them geometric tails, whose
        deviation does not survive the round trip bit for bit."""
        outcomes = int(rng.integers(3, 5))
        d = int(rng.integers(2, 5))
        amps = rng.normal(size=outcomes) + 1j * rng.normal(size=outcomes)
        amps /= np.linalg.norm(amps)
        limits = [_unit(rng, d) for _ in range(outcomes)]
        branches = []
        for lim in limits:
            if parametric:
                tail = TailSpec("geometric", lim, 0.3 * _unit(rng, d), ratio=float(rng.uniform(0.2, 0.9)), scale=0.3)
            else:
                tail = TailSpec("constant", lim)
            branches.append(StateSpec(_prefix(rng, d, 32, 64), tail).doc())
        text = serialize.dumps({
            "type": "measurement-model",
            "label": None,
            "coefficients": [ref.cjson(c) for c in amps],
            "branches": branches,
        })

        def run():
            model = serialize.decode_model(serialize.loads(text))
            return serialize.dumps(serialize.encode_model(model))

        return Op("measurement_model", run,
                  lambda out: [_guard("serialize-round-trip", lambda: out == text)])


def _onset_fn(onset: int, fn):
    return lambda n: (1 + 0j) if n < onset else fn(n)


def _product_check(out, expected, prefix_prod):
    def agrees():
        kind, value, _ = out
        want_kind, want_value = expected
        if want_kind == "custom":
            # an undeclared tail may stay Inconclusive; a value it claims must hold
            if kind == "Inconclusive":
                return True
            want_kind = "ConvergesTo"
        if kind != want_kind:
            return False
        if want_value is None:
            return True
        return abs(value - prefix_prod * want_value()) <= 1e-8 * max(1.0, abs(value))

    return _guard("mpmath-reference", agrees)


# ---------------------------------------------------------------------------
# cli-calls: one subprocess per call, all eight subcommands per round


class CliCalls(Workload):
    name = "cli-calls"
    index = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        out = os.path.join(self.root, "bench", "out")
        os.makedirs(out, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=out)
        self.spawn = None  # set by the harness: (argv, traced) -> (code, stdout bytes)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def warmup(self):
        return [op for op in self.round(0) if op.kind == "qnd-sim"]

    def _write(self, r, name, text):
        path = os.path.join(self.tmp, f"r{r}-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return os.path.relpath(path, self.root)

    def _state_doc(self, rng, d, tail_kind=None):
        u = _unit(rng, d)
        kind = tail_kind or ["constant", "geometric", "p-series", "eventually-constant"][int(rng.integers(0, 4))]
        tail = _tail(rng, kind, u, 1000)
        return StateSpec(_prefix(rng, d, 0, 16), tail)

    def make_round(self, rng, r):
        small = 0.1 if self.smoke else 1.0
        calls = []
        family = SEQUENCE_FAMILIES[int(rng.integers(0, 4))]
        c = ref.cjson(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3)))
        tail = {
            "geometric-one-plus": {"kind": family, "coefficient": c, "ratio": float(rng.uniform(0.3, 0.9))},
            "p-series-one-plus": {"kind": family, "coefficient": c, "p": float(rng.uniform(1.5, 3.0))},
            "phase-drift": {"kind": family, "coefficient": float(rng.uniform(0.2, 2.0)), "p": float(rng.uniform(0.5, 1.0))},
            "constant-value": {"kind": family, "value": ref.cjson(complex(rng.uniform(0.8, 1.0), 0.0))},
        }[family]
        seq = self._write(r, "sequence", serialize.dumps({"prefix": [], "tail": tail}))
        calls.append(("product-classify", [seq, "--budget", str(int(rng.integers(500, 2001)))]))

        d = int(rng.integers(2, 5))
        a = self._state_doc(rng, d, "constant")
        b = StateSpec(a.prefix.copy(), a.tail)
        if rng.random() < 0.5 and len(b.prefix):
            b.prefix[int(rng.integers(0, len(b.prefix)))] = _unit(rng, d)
        else:
            b = StateSpec(a.prefix, TailSpec("constant", _tilted(rng, a.tail.limit, -0.1)))
        calls.append(("sector-test", [self._write(r, "a", serialize.dumps(a.doc())),
                                      self._write(r, "b", serialize.dumps(b.doc()))]))

        n = int(rng.integers(200, 2001) * small) + 2
        bra = self._state_doc(rng, 2, "constant")
        ket = StateSpec(_prefix(rng, 2, 0, 16), _tail(rng, ["constant", "geometric", "p-series", "eventually-constant"][int(rng.integers(0, 4))],
                                                      _tilted(rng, bra.tail.limit, -5.0 / n), n))
        calls.append(("overlap-sweep", [self._write(r, "bra", serialize.dumps(bra.doc())),
                                        self._write(r, "ket", serialize.dumps(ket.doc())),
                                        "--max", str(n), "--step", str(max(1, n // 100)),
                                        "--eps", repr(float(10 ** -rng.uniform(0.5, 2.0)))]))

        state = self._state_doc(rng, 2)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = np.eye(2) * 0.999 + 0.001 * (h + h.conj().T)
        op_doc = {"type": "factored-operator", "terms": [{
            "coefficient": ref.cjson(1.0), "prefix_ops": [],
            "tail": {"kind": "constant", "entries": [ref.cjson(z) for z in h.reshape(-1)]}}]}
        cuts = ",".join(str(max(1, n * k // 10)) for k in range(1, 11))
        calls.append(("expectation-sweep", [self._write(r, "op", serialize.dumps(op_doc)),
                                            self._write(r, "state", serialize.dumps(state.doc())),
                                            "--cuts", cuts]))

        outcomes = int(rng.integers(2, 4))
        amps = rng.normal(size=outcomes) + 1j * rng.normal(size=outcomes)
        amps /= np.linalg.norm(amps)
        model = {"type": "measurement-model", "label": None,
                 "coefficients": [ref.cjson(z) for z in amps],
                 "branches": [StateSpec(_prefix(rng, 2, 0, 8), TailSpec("constant", _unit(rng, 2))).doc()
                              for _ in range(outcomes)]}
        model_path = self._write(r, "model", serialize.dumps(model))
        calls.append(("decohere", [model_path, "--max", str(n), "--step", str(max(1, n // 50)),
                                   "--eps", repr(float(10 ** -rng.uniform(1.0, 6.0)))]))
        calls.append(("sample", [model_path, "--count", str(int(rng.integers(1000, 10001) * small)),
                                 "--seed", str(int(rng.integers(0, 2**31)))]))

        period = int(rng.integers(1, 5))
        rotated = int(rng.integers(1, period + 1)) if period > 1 else 1
        xi = Fraction(rotated, period)
        n_max = period * max(1, int(rng.integers(20, 2001) * small) // period)
        calls.append(("spin-sweep", ["--xi", f"{xi.numerator}/{xi.denominator}", "--n-max", str(n_max)]))
        calls.append(("qnd-sim", []))
        return [self._cli_op(sub, args) for sub, args in calls]

    def _cli_op(self, sub, args):
        argv = [sub] + args

        def run():
            return self.spawn(argv, self.traced)

        def check(out):
            code, stdout = out
            buf = io.StringIO()

            def in_process_ok():
                with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                    return cli.main(argv) == 0

            _, reference_ok = _guard("exit-code", in_process_ok)
            return [("exit-code", code == 0 and reference_ok),
                    ("cli-bytes", reference_ok and stdout == buf.getvalue().encode("utf-8"))]

        return Op(sub, run, check)


def build(name: str, seed: int, root: str, smoke: bool) -> Workload:
    classes = {cls.name: cls for cls in (CliCalls, LongWalk, WideBrackets, Verdicts)}
    if name not in classes:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return classes[name](seed, root, smoke)
