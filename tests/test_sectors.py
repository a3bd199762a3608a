import ast
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsectors as q
from qsectors.states import _CanonicalFamily, _row_norms

from support import random_factor, rounding_room

E0 = q.FactorVector((1.0, 0.0))
E1 = q.FactorVector((0.0, 1.0))


def unit_state(prefix=(), tail_vec=E0, label=""):
    return q.make_product_state(prefix, q.ConstantTail(tail_vec), label=label)


def rotated(theta):
    return q.FactorVector((math.cos(theta), math.sin(theta)))


def geometric_state(limit, ratio=0.5, amp=0.2, direction=E1):
    """Unit-factor state whose tail slides toward ``limit`` geometrically."""

    def fn(n):
        raw = tuple(
            l + amp * ratio ** n * d
            for l, d in zip(limit.amplitudes, direction.amplitudes)
        )
        return q.FactorVector(raw).normalized()

    # normalizing moves a near-unit vector by at most twice the raw shift
    decay = q.DecaySpec(kind="geometric", ratio=ratio, scale=4.0 * amp)
    return q.ProductState(
        prefix=(), tail=q.ParametricTail(dim=2, factor_fn=fn, limit=limit, decay=decay)
    )


class TestClassifySequence:
    def test_constant_above_one_diverges(self):
        s = unit_state(tail_vec=q.FactorVector((1.2, 0.0)))
        assert q.classify_sequence(s).kind == "NotConvergentSequence"

    def test_constant_below_one_converges(self):
        s = unit_state(tail_vec=q.FactorVector((0.9, 0.0)))
        c = q.classify_sequence(s)
        assert c.kind == "ConvergentSequence"
        assert "zero_factor_at" not in c.evidence

    def test_zero_prefix_factor(self):
        s = unit_state(prefix=(q.FactorVector((0.0, 0.0)),))
        c = q.classify_sequence(s)
        assert c.kind == "ConvergentSequence"
        assert c.evidence["zero_factor_at"] == 0

    def test_zero_constant_tail(self):
        s = unit_state(prefix=(E0,), tail_vec=q.FactorVector((0.0, 0.0)))
        c = q.classify_sequence(s)
        assert c.kind == "ConvergentSequence"
        assert c.evidence["zero_factor_at"] == 1

    def test_zero_in_parametric_tail(self):
        zero = q.FactorVector((0.0, 0.0))

        def fn(n):
            return zero if n == 2 else E0

        tail = q.ParametricTail(
            dim=2,
            factor_fn=fn,
            limit=E0,
            decay=q.DecaySpec(kind="geometric", ratio=0.5, scale=8.0),
        )
        c = q.classify_sequence(q.ProductState(prefix=(), tail=tail))
        assert c.kind == "ConvergentSequence"
        assert c.evidence["zero_factor_at"] == 2

    def test_unit_constant_is_non_trivial(self):
        c = q.classify_sequence(unit_state(prefix=(E1, rotated(0.4))))
        assert c.kind == "NonTrivialConvergentSequence"
        assert c.evidence["proven"] is True
        assert c.evidence["norm_series_bound"] < 1e-9

    def test_geometric_bound_covers_reality(self):
        s = geometric_state(E0)
        c = q.classify_sequence(s)
        assert c.kind == "NonTrivialConvergentSequence"
        actual = sum(abs(s.factor_at(k).norm - 1.0) for k in range(3000))
        assert c.evidence["norm_series_bound"] >= actual

    def test_probe_accepts_fast_decay_under_weak_declaration(self):
        def fn(n):
            return q.FactorVector((1.0 + (n + 1.0) ** -2, 0.0))

        tail = q.ParametricTail(
            dim=2,
            factor_fn=fn,
            limit=E0,
            decay=q.DecaySpec(kind="p-series", p=0.5, scale=2.0),
        )
        c = q.classify_sequence(q.ProductState(prefix=(), tail=tail))
        assert c.kind == "NonTrivialConvergentSequence"
        assert c.evidence["proven"] is False
        assert c.evidence["method"] == "numeric-probe"

    def test_probe_rejects_slow_decay(self):
        def fn(n):
            return q.FactorVector((1.0 - 0.1 / math.log(n + 3.0), 0.0))

        tail = q.ParametricTail(
            dim=2,
            factor_fn=fn,
            limit=E0,
            decay=q.DecaySpec(kind="p-series", p=0.3, scale=1.0),
        )
        c = q.classify_sequence(q.ProductState(prefix=(), tail=tail))
        assert c.kind == "ConvergentSequence"
        assert c.evidence["proven"] is False


class TestSameSectorPreconditions:
    def test_rejects_shrinking_state(self):
        bad = unit_state(tail_vec=q.FactorVector((0.9, 0.0)))
        with pytest.raises(q.PreconditionViolated):
            q.same_sector(bad, unit_state())

    def test_rejects_growing_partner(self):
        bad = unit_state(tail_vec=q.FactorVector((1.1, 0.0)))
        with pytest.raises(q.PreconditionViolated):
            q.same_sector(unit_state(), bad)

    def test_rejects_shape_mismatch(self):
        three = q.make_product_state((), q.ConstantTail(q.basis_vector(3, 0)))
        with pytest.raises(q.ShapeMismatch):
            q.same_sector(unit_state(), three)


class TestSameSectorVerdicts:
    def test_orthogonal_prefix_site_does_not_split(self):
        a = unit_state(prefix=(E0,), label="a")
        b = unit_state(prefix=(E1,), label="b")
        v = q.same_sector(a, b)
        assert v.kind == "SameSector"
        assert v.certificate["differing_prefix_indices"] == (0,)
        assert v.certificate["prefix_deficit_sum"] == pytest.approx(1.0)
        assert v.certificate["limit_overlap_deficit"] == 0.0

    def test_constant_tail_certificate(self):
        v = q.same_sector(unit_state(), unit_state(prefix=(rotated(0.3),)))
        assert v.kind == "SameSector"
        assert v.certificate["method"] == "constant-tails"
        deficit = 1.0 - math.cos(0.3)
        assert v.certificate["deficit_series_bound"] >= deficit

    def test_parametric_certificate_dominates_partial_sums(self):
        a = geometric_state(E0, ratio=0.5, amp=0.2)
        b = geometric_state(E0, ratio=0.7, amp=0.1, direction=rotated(1.0))
        v = q.same_sector(a, b)
        assert v.kind == "SameSector"
        assert v.certificate["method"] == "declared-decay"
        partial = sum(
            abs(q.factor_overlap(a.factor_at(k), b.factor_at(k)) - 1.0)
            for k in range(2000)
        )
        assert v.certificate["deficit_series_bound"] >= partial

    def test_misaligned_tails_split(self):
        v = q.same_sector(unit_state(), unit_state(tail_vec=rotated(0.2)))
        assert v.kind == "DifferentSector"
        deficit = v.certificate["limit_overlap_deficit"]
        assert deficit == pytest.approx(1.0 - math.cos(0.2))
        assert v.certificate["per_term_lower_bound"] == deficit / 2.0

    def test_witness_holds_term_by_term(self):
        a = geometric_state(E0, ratio=0.5, amp=0.1)
        b = geometric_state(rotated(0.5), ratio=0.5, amp=0.1)
        v = q.same_sector(a, b)
        assert v.kind == "DifferentSector"
        site = v.certificate["from_site"]
        bound = v.certificate["per_term_lower_bound"]
        for k in range(site, site + 100):
            deficit = abs(q.factor_overlap(a.factor_at(k), b.factor_at(k)) - 1.0)
            assert deficit >= bound

    def test_gray_zone_is_inconclusive(self):
        # deficit ~ 1e-10 sits between the snap and decisive thresholds
        delta = math.sqrt(2e-10)
        near = q.FactorVector((1.0, delta)).normalized()
        v = q.same_sector(unit_state(), unit_state(tail_vec=near))
        assert v.kind == "Inconclusive"
        assert "gray zone" in v.certificate["reason"]

    def test_unsummable_declaration_is_inconclusive(self):
        def fn(n):
            return q.FactorVector((1.0, 1.0 / (n + 2.0))).normalized()

        tail = q.ParametricTail(
            dim=2,
            factor_fn=fn,
            limit=E0,
            decay=q.DecaySpec(kind="p-series", p=1.0, scale=1.0),
        )
        s = q.ProductState(prefix=(), tail=tail)
        v = q.same_sector(s, unit_state())
        assert v.kind == "Inconclusive"
        assert "summable" in v.certificate["reason"]


class TestClassifyOnce:
    def test_each_state_is_classified_once(self, monkeypatch):
        from qsectors import sectors
        from qsectors.operators import FactoredOperator, FactorOperator, IdentityTail, OperatorTerm

        calls = []
        classify = sectors.classify_sequence
        monkeypatch.setattr(sectors, "classify_sequence", lambda s: calls.append(s) or classify(s))
        a, b = geometric_state(E0), unit_state(tail_vec=rotated(0.2))
        op = FactoredOperator((OperatorTerm(1.0, (FactorOperator(np.eye(2)),), IdentityTail(2)),))
        for _ in range(3):
            q.same_sector(a, b)
            q.sector_action(op, a)
            q.MeasurementModel((0.6, 0.8), (a, b))
        assert [id(s) for s in calls] == [id(a), id(b)]
        assert a.sequence_class is a.sequence_class

    def test_the_class_is_not_pickled(self):
        import pickle

        s = unit_state(prefix=(rotated(0.3),))
        before = pickle.dumps(s)
        assert s.sequence_class.kind == "NonTrivialConvergentSequence"
        assert pickle.dumps(s) == before
        assert "sequence_class" not in vars(pickle.loads(before))


class TestEquivalenceAxioms:
    def pool(self):
        return [
            unit_state(label="bare"),
            unit_state(prefix=(E1,), label="flipped"),
            unit_state(prefix=(rotated(0.7), E0), label="tilted"),
            unit_state(tail_vec=rotated(0.3), label="other-bare"),
            unit_state(prefix=(E0,), tail_vec=rotated(0.3), label="other-flipped"),
        ]

    def test_reflexive(self):
        for s in self.pool():
            assert q.same_sector(s, s).kind == "SameSector"

    def test_symmetric(self):
        pool = self.pool()
        for a in pool:
            for b in pool:
                assert q.same_sector(a, b).kind == q.same_sector(b, a).kind

    def test_transitive_and_consistent(self):
        pool = self.pool()
        kinds = {
            (i, j): q.same_sector(a, b).kind
            for i, a in enumerate(pool)
            for j, b in enumerate(pool)
        }
        n = len(pool)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if kinds[i, j] == "SameSector" and kinds[j, k] == "SameSector":
                        assert kinds[i, k] == "SameSector"
                    if kinds[i, j] == "SameSector" and kinds[j, k] == "DifferentSector":
                        assert kinds[i, k] == "DifferentSector"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 3))
    def test_random_finite_prefixes_stay_together(self, seed, la, lb):
        rng = np.random.default_rng(seed)
        a = unit_state(prefix=tuple(random_factor(rng, 2) for _ in range(la)))
        b = unit_state(prefix=tuple(random_factor(rng, 2) for _ in range(lb)))
        assert q.same_sector(a, b).kind == "SameSector"


class TestNormedRepresentative:
    def test_constant_tail(self):
        s = q.make_product_state(
            (q.FactorVector((2.0, 0.0)),),
            q.ConstantTail(q.FactorVector((0.0, 0.5j))),
        )
        r = q.normed_representative(s)
        assert r.factor_at(0).norm == pytest.approx(1.0)
        assert r.factor_at(7).norm == pytest.approx(1.0)
        # phase is kept, only the modulus is rescaled
        assert r.factor_at(7).amplitudes[1] == pytest.approx(1j)
        assert q.classify_sequence(r).kind == "NonTrivialConvergentSequence"

    def test_parametric_tail(self):
        def fn(n):
            return q.FactorVector((1.0 + 0.3 * 0.5 ** n, 0.0))

        tail = q.ParametricTail(
            dim=2,
            factor_fn=fn,
            limit=E0,
            decay=q.DecaySpec(kind="geometric", ratio=0.5, scale=0.3),
        )
        r = q.normed_representative(q.ProductState(prefix=(), tail=tail))
        for k in range(10):
            assert r.factor_at(k).norm == pytest.approx(1.0)
        assert r.tail.decay.scale == pytest.approx(0.6)

    def test_zero_limit_rejected(self):
        def fn(n):
            return q.FactorVector((0.5 ** n, 0.0))

        tail = q.ParametricTail(
            dim=2,
            factor_fn=fn,
            limit=q.FactorVector((0.0, 0.0)),
            decay=q.DecaySpec(kind="geometric", ratio=0.5, scale=1.0),
        )
        with pytest.raises(q.ZeroNormFactor):
            q.normed_representative(q.ProductState(prefix=(), tail=tail))


class TestApplyFiniteChange:
    def test_empty_changes_is_identity(self):
        s = unit_state(prefix=(E1,))
        assert q.apply_finite_change(s, {}) is s

    def test_negative_site(self):
        with pytest.raises(q.PreconditionViolated):
            q.apply_finite_change(unit_state(), {-1: E0})

    def test_dim_mismatch(self):
        with pytest.raises(q.ShapeMismatch):
            q.apply_finite_change(unit_state(), {0: q.basis_vector(3, 0)})

    def test_materializes_through_changed_site(self):
        s = unit_state(prefix=(E1,))
        t = q.apply_finite_change(s, {4: rotated(0.9)})
        assert t.prefix_len == 5
        # vectors are built from the state's arrays on each read: equal, with the same bits
        assert repr(t.factor_at(0)) == repr(s.factor_at(0)) and t.factor_at(0) == E1
        assert t.factor_at(2).amplitudes == E0.amplitudes
        assert t.factor_at(4).amplitudes == rotated(0.9).amplitudes
        assert t.factor_at(11).amplitudes == E0.amplitudes

    def test_accepts_raw_sequences(self):
        t = q.apply_finite_change(unit_state(), {0: (0.0, 1.0)})
        assert t.factor_at(0).amplitudes == (0.0, 1.0)

    def test_change_never_leaves_the_sector(self):
        s = geometric_state(E0)
        t = q.apply_finite_change(s, {0: E1, 3: rotated(1.2), 9: E1})
        assert q.same_sector(s, t).kind == "SameSector"

    def test_refuses_to_materialize_past_the_walk_budget(self):
        calls = []

        def fn(n):
            calls.append(n)
            return E0

        s = q.ProductState((E1,), q.ParametricTail(2, fn, E0, q.DecaySpec("geometric", ratio=0.5)))
        calls.clear()
        with pytest.raises(q.DimensionBudgetExceeded) as exc:
            q.apply_finite_change(s, {10**12: E1})
        assert exc.value.context["sites"] == 10**12
        assert calls == []


def _declared_pair_state(kind, limit, prefix, phase=0.0):
    """Unit-factor state of one tail kind sliding toward ``limit``.

    The raw shift is 0.2 * w(n) along the direction orthogonal to the limit,
    where w(n) follows the declared class; normalizing at most doubles it.
    ``phase`` rotates every tail factor and the limit by the same phase.
    """
    turn = complex(math.cos(phase), math.sin(phase))
    if kind == "constant":
        tail = q.ConstantTail(limit.scaled(turn))
        return q.ProductState(prefix, tail)
    u0, u1 = limit.amplitudes
    decay, weight = {
        "geometric": (q.DecaySpec("geometric", ratio=0.5, scale=0.4), lambda n: 0.5**n),
        "p-series": (q.DecaySpec("p-series", p=2.0, scale=0.4), lambda n: (n + 1) ** -2.0),
        "p-series-slow": (
            q.DecaySpec("p-series", p=0.75, scale=0.4),
            lambda n: (n + 1) ** -0.75,
        ),
        "eventually-constant": (
            q.DecaySpec("eventually-constant", rank=5, scale=0.4),
            lambda n: 1.0 if n < 5 else 0.0,
        ),
    }[kind]

    def fn(n):
        w = 0.2 * weight(n)
        return q.FactorVector((u0 - w * u1, u1 + w * u0)).normalized().scaled(turn)

    tail = q.ParametricTail(dim=2, factor_fn=fn, limit=limit.scaled(turn), decay=decay)
    return q.ProductState(prefix, tail)


# kind -> (the second state's limit, its phase): summable kinds with a
# phase-only limit shift never decohere; the rest get a rotated limit and a
# finite horizon
FROZEN_PAIRS = {
    "constant": (rotated(1.1), 0.0),
    # deficit/2 = sin(0.205) lies between 2d and 2d + d^2 for the declared
    # bound d = 0.1 at site 2, so the witness site pins the d^2 term
    "geometric": (rotated(0.3), 0.41),
    "p-series": (rotated(0.3), 0.5),
    "p-series-slow": (rotated(1.1), 0.0),
    "eventually-constant": (rotated(1.1), 0.0),
}

# reprs of the classify_sequence evidence of both states, the same_sector
# certificates against the partner and against a finitely changed copy, and
# the decoherence horizon at eps = 1e-3
FROZEN_BITS = {
    'constant': (
        "{'limit_norm': 1.0, 'decay_kind': 'eventually-constant', 'summable': True, 'prefix_norm_deviation': 0.0, 'proven': True, 'norm_series_bound': 0.0}",
        "{'limit_norm': 1.0, 'decay_kind': 'eventually-constant', 'summable': True, 'prefix_norm_deviation': 0.0, 'proven': True, 'norm_series_bound': 0.0}",
        "{'differing_prefix_indices': (1,), 'prefix_deficit_sum': 0.019933422158758374, 'limit_overlap_deficit': 0.3032932906528347, 'per_term_lower_bound': 0.15164664532641736, 'from_site': 2}",
        "{'differing_prefix_indices': (1, 3), 'prefix_deficit_sum': 0.3607781474842833, 'limit_overlap_deficit': 0.0, 'deficit_series_bound': 0.3607781474842833, 'method': 'constant-tails'}",
        '20',
    ),
    'eventually-constant': (
        "{'limit_norm': 1.0, 'decay_kind': 'eventually-constant', 'summable': True, 'prefix_norm_deviation': 0.0, 'proven': True, 'norm_series_bound': 1.2000000000000002}",
        "{'limit_norm': 1.0, 'decay_kind': 'eventually-constant', 'summable': True, 'prefix_norm_deviation': 0.0, 'proven': True, 'norm_series_bound': 1.2000000000000002}",
        "{'differing_prefix_indices': (1,), 'prefix_deficit_sum': 0.019933422158758374, 'limit_overlap_deficit': 0.3032932906528347, 'per_term_lower_bound': 0.15164664532641736, 'from_site': 8}",
        "{'differing_prefix_indices': (1, 3), 'prefix_deficit_sum': 0.3996793998891185, 'limit_overlap_deficit': 0.0, 'deficit_series_bound': 1.3596793998891186, 'method': 'declared-decay'}",
        '20',
    ),
    'geometric': (
        "{'limit_norm': 1.0, 'decay_kind': 'geometric', 'summable': True, 'prefix_norm_deviation': 0.0, 'proven': True, 'norm_series_bound': 0.2}",
        "{'limit_norm': 1.0, 'decay_kind': 'geometric', 'summable': True, 'prefix_norm_deviation': 0.0, 'proven': True, 'norm_series_bound': 0.2}",
        "{'differing_prefix_indices': (1,), 'prefix_deficit_sum': 0.019933422158758374, 'limit_overlap_deficit': 0.407134319809556, 'per_term_lower_bound': 0.203567159904778, 'from_site': 4}",
        "{'differing_prefix_indices': (1, 3), 'prefix_deficit_sum': 0.3635839964422545, 'limit_overlap_deficit': 0.0, 'deficit_series_bound': 0.48358399644225447, 'method': 'declared-decay'}",
        'inf',
    ),
    'p-series': (
        "{'limit_norm': 1.0, 'decay_kind': 'p-series', 'summable': True, 'prefix_norm_deviation': 0.0, 'proven': True, 'norm_series_bound': 0.17777777777777778}",
        "{'limit_norm': 1.0, 'decay_kind': 'p-series', 'summable': True, 'prefix_norm_deviation': 0.0, 'proven': True, 'norm_series_bound': 0.17777777777777778}",
        "{'differing_prefix_indices': (1,), 'prefix_deficit_sum': 0.019933422158758374, 'limit_overlap_deficit': 0.4948079185090458, 'per_term_lower_bound': 0.2474039592545229, 'from_site': 2}",
        "{'differing_prefix_indices': (1, 3), 'prefix_deficit_sum': 0.3621036933022844, 'limit_overlap_deficit': 0.0, 'deficit_series_bound': 0.5925036933022845, 'method': 'declared-decay'}",
        'inf',
    ),
    'p-series-slow': (
        "{'limit_norm': 1.0, 'decay_kind': 'p-series', 'summable': False, 'prefix_norm_deviation': 0.0, 'proven': False, 'method': 'numeric-probe', 'probe_window': 4096, 'probe_sums': (2.041700142285663e-13, 2.015054789694659e-13)}",
        "{'limit_norm': 1.0, 'decay_kind': 'p-series', 'summable': False, 'prefix_norm_deviation': 0.0, 'proven': False, 'method': 'numeric-probe', 'probe_window': 4096, 'probe_sums': (1.9906298831529057e-13, 1.9839685450051547e-13)}",
        "{'differing_prefix_indices': (1,), 'prefix_deficit_sum': 0.019933422158758374, 'limit_overlap_deficit': 0.3032932906528347, 'per_term_lower_bound': 0.15164664532641736, 'from_site': 16}",
        "{'differing_prefix_indices': (1, 3), 'prefix_deficit_sum': 0.3702980747062987, 'limit_overlap_deficit': 0.0, 'reason': 'tail limits align but a declared class does not certify a summable approach'}",
        '20',
    ),
}


def _frozen_outputs(kind):
    other_limit, phase = FROZEN_PAIRS[kind]
    a = _declared_pair_state(kind, rotated(0.3), (rotated(0.3), rotated(0.7)))
    b = _declared_pair_state(kind, other_limit, (rotated(0.3), rotated(0.9)), phase)
    moved = q.apply_finite_change(a, {1: E1, 3: rotated(0.2)})
    model = q.MeasurementModel((0.6, 0.8), (a, b))
    return (
        repr(q.classify_sequence(a).evidence),
        repr(q.classify_sequence(b).evidence),
        repr(q.same_sector(a, b).certificate),
        repr(q.same_sector(a, moved).certificate),
        repr(q.decoherence_horizon(model, 1e-3)),
    )


class TestFrozenCertificates:
    @pytest.mark.parametrize("kind", sorted(FROZEN_PAIRS))
    def test_certificate_bits_are_unchanged(self, kind):
        assert _frozen_outputs(kind) == FROZEN_BITS[kind]


# -- certificates over long explicit prefixes ----------------------------------
#
# Prefixes that share more than 64 explicit sites are bracketed from the
# states' stacked arrays; certificates and asymptotic overlaps must keep the
# bits of the site-by-site loop they replaced, kept here as the reference.


def _site_by_site_brackets(a, b, span):
    return [q.factor_overlap(a.factor_at(k), b.factor_at(k)) for k in range(span)]


def _near(rng, f, sigma):
    v = np.array(f.amplitudes) + sigma * (rng.normal(size=f.dim) + 1j * rng.normal(size=f.dim))
    return q.FactorVector(tuple((v / np.linalg.norm(v)).tolist()))


def _long_pair(seed):
    """Two unit states with mixed-dim prefixes of unequal lengths, sharing
    more than 64 explicit sites; the tails agree on every other seed."""
    rng = np.random.default_rng(seed)
    dims = []
    while len(dims) < 80:
        dims += [int(rng.integers(1, 6))] * int(rng.integers(1, 30))
    tail_dim = 2
    last = int(rng.integers(2, 60))
    dims += [tail_dim] * last
    a_prefix = tuple(random_factor(rng, d) for d in dims)
    cut = len(dims) - int(rng.integers(1, last + 1))  # inside the tail-dim run
    sigma = float(rng.choice([0.0, 1e-7, 0.05]))
    b_prefix = tuple(_near(rng, f, sigma) for f in a_prefix[:cut])
    limit = random_factor(rng, tail_dim)
    other = limit if seed % 2 == 0 else random_factor(rng, tail_dim)
    if seed % 3 == 2:
        a_tail = geometric_state(limit).tail
    else:
        a_tail = q.ConstantTail(limit)
    a, b = q.ProductState(a_prefix, a_tail), q.ProductState(b_prefix, q.ConstantTail(other))
    return (a, b) if seed % 4 < 2 else (b, a)


class TestLongPrefixCertificates:
    @pytest.mark.parametrize("seed", range(12))
    def test_match_the_site_by_site_reference(self, seed, monkeypatch):
        from qsectors import sectors

        a, b = _long_pair(seed)

        def outputs():
            return repr((q.same_sector(a, b), q.asymptotic_overlap(a, b)))

        got = outputs()
        # asymptotic_overlap reads the brackets same_sector read
        monkeypatch.setattr(sectors, "_prefix_brackets", _site_by_site_brackets)
        assert outputs() == got


# -- the probe's block path ----------------------------------------------------
#
# A decoded family's tail is read by the norm-series probe as one block of
# rows; the evidence must keep the bits of the site-by-site walk that any
# other callback still takes.


def _decoded_p_series(dim, prefix_len, p, seed):
    from qsectors import serialize

    rng = np.random.default_rng(seed)
    doc = {
        "type": "product-state",
        "prefix": [
            [serialize.encode_complex(c) for c in random_factor(rng, dim).amplitudes]
            for _ in range(prefix_len)
        ],
        "tail": {
            "kind": "parametric",
            "class": "p-series",
            "p": p,
            "scale": 0.3,
            "limit": [serialize.encode_complex(c) for c in random_factor(rng, dim).amplitudes],
            "deviation": [
                serialize.encode_complex(0.3 * c) for c in random_factor(rng, dim).amplitudes
            ],
        },
    }
    return serialize.decode_state(serialize.loads(serialize.dumps(doc)))


def _plain_twin(state, shift, p):
    """The same factors as a shifted decoded p-series tail, behind a lambda."""
    tail = state.tail
    limit, dev = tail.limit.amplitudes, tail.factor_fn.deviation

    def factor(n):
        # the family's kernel: one np.power call over a one-element array
        w = complex(np.power(np.array([max(n - shift, 0) + 1.0]), -p)[0])
        return q.FactorVector(tuple(a + w * d for a, d in zip(limit, dev)))

    return q.ProductState(
        state.prefix, q.ParametricTail(tail.dim, factor, tail.limit, tail.decay)
    )


# (dim, prefix sites, shift, p): every p, prefix and shift together, dims 1-8 in turn
PROBE_CASES = [
    (k % 8 + 1, prefix_len, shift, p)
    for k, (p, prefix_len, shift) in enumerate(
        itertools.product((0.3, 0.75, 1.0), (0, 3, 70), (0, 1, 5))
    )
]


def _mp_probe_sums(state, shift, p, window):
    """The probe's two sums of |norm - 1| over ``window`` tail sites each,
    from the exact factors limit + (n + 1)**-p * deviation at 40 digits."""
    family, start = state.tail.factor_fn, state.prefix_len
    with mpmath.workdps(40):
        parts = [
            [(mpmath.mpf(c.real), mpmath.mpf(c.imag)) for c in amplitudes]
            for amplitudes in (family.limit.amplitudes, family.deviation)
        ]

        def deviation(site):
            w = mpmath.mpf(max(site - shift, 0) + 1) ** -mpmath.mpf(p)
            norm_sq = mpmath.fsum(
                (lr + w * dr) ** 2 + (li + w * di) ** 2 for (lr, li), (dr, di) in zip(*parts)
            )
            return abs(mpmath.sqrt(norm_sq) - 1)

        return [
            float(mpmath.fsum(deviation(site) for site in range(lo, lo + window)))
            for lo in (start, start + window)
        ]


# cases whose probe evidence is frozen below
FROZEN_PROBE_CASES = [(1, 0, 0, 0.3), (3, 3, 1, 0.75), (5, 70, 5, 1.0), (8, 3, 0, 0.3)]
FROZEN_PROBE_EVIDENCE = {
    (1, 0, 0, 0.3): "{'limit_norm': 1.0, 'decay_kind': 'p-series', 'summable': False, 'prefix_norm_deviation': 0, 'proven': False, 'method': 'numeric-probe', 'probe_window': 4096, 'probe_sums': (143.39702570864046, 89.72515012106336)}",
    (3, 3, 1, 0.75): "{'limit_norm': 0.9999999999999999, 'decay_kind': 'p-series', 'summable': False, 'prefix_norm_deviation': 2.220446049250313e-16, 'proven': False, 'method': 'numeric-probe', 'probe_window': 4096, 'probe_sums': (3.711520295638964, 0.823726149620972)}",
    (5, 70, 5, 1.0): "{'limit_norm': 1.0, 'decay_kind': 'p-series', 'summable': False, 'prefix_norm_deviation': 4.3298697960381105e-15, 'proven': False, 'method': 'numeric-probe', 'probe_window': 4096, 'probe_sums': (0.19833186033339367, 0.03263255206879978)}",
    (8, 3, 0, 0.3): "{'limit_norm': 1.0, 'decay_kind': 'p-series', 'summable': False, 'prefix_norm_deviation': 0.0, 'proven': False, 'method': 'numeric-probe', 'probe_window': 4096, 'probe_sums': (23.135336249669013, 15.37695100306031)}",
}


def _family_kinds():
    # signed zeros and subnormals, so rounding to zero shows in the signs
    limit = q.FactorVector((0.6, -0.0, 0.8j, complex(-0.0, -0.0)))
    dev = (complex(0.1, -0.0), complex(-3e-310, 0.2), complex(0.0, -1e-300), complex(0.0, -3e-320))
    decays = {
        "geometric": q.DecaySpec("geometric", ratio=0.5),
        "geometric-ratio-zero": q.DecaySpec("geometric", ratio=0.0),
        "p-series": q.DecaySpec("p-series", p=0.75),
        "eventually-constant": q.DecaySpec("eventually-constant", rank=7),
        "custom-certified": q.DecaySpec("custom-certified", scale=0.5),
    }
    return {
        f"{name}-shift-{shift}": q.ParametricTail(
            4, _CanonicalFamily(limit, dev, decay), limit, decay
        ).shifted(shift)
        for name, decay in decays.items()
        for shift in (0, 3)
    }


class TestProbeBlockPath:
    @pytest.mark.parametrize("dim, prefix_len, shift, p", PROBE_CASES)
    def test_evidence_matches_the_plain_callback(self, dim, prefix_len, shift, p):
        decoded = _decoded_p_series(dim, prefix_len, p, seed=dim * 1000 + prefix_len + shift)
        state = q.ProductState(decoded.prefix, decoded.tail.shifted(shift))
        twin = _plain_twin(state, shift, p)
        got = q.classify_sequence(state)
        assert got.evidence["method"] == "numeric-probe"
        assert repr(got.evidence) == repr(q.classify_sequence(twin).evidence)

    @pytest.mark.parametrize("case", FROZEN_PROBE_CASES)
    def test_evidence_bits_are_frozen(self, case):
        # frozen from the site-by-site probe, before the block path existed,
        # with Python's (n + 1) ** -p weights: exact where numpy's power
        # rounds as ** does at the probe's sites (numpy's libm loop); where
        # it does not (numpy's AVX-512 loop), the probe sums agree with
        # mpmath within the rounding room and the rest keeps its bits
        dim, prefix_len, shift, p = case
        decoded = _decoded_p_series(dim, prefix_len, p, seed=dim * 1000 + prefix_len + shift)
        state = q.ProductState(decoded.prefix, decoded.tail.shifted(shift))
        got = q.classify_sequence(state).evidence
        frozen = ast.literal_eval(FROZEN_PROBE_EVIDENCE[case])
        window = frozen["probe_window"]
        sites = np.maximum(np.arange(prefix_len, prefix_len + 2 * window) - shift, 0) + 1.0
        if np.power(sites, -p).tolist() == [k**-p for k in sites.tolist()]:
            assert repr(got) == FROZEN_PROBE_EVIDENCE[case]
            return
        sums = got.pop("probe_sums")
        assert got == {k: v for k, v in frozen.items() if k != "probe_sums"}
        room, _ = rounding_room(state, state, prefix_len + 2 * window)
        for value, truth in zip(sums, _mp_probe_sums(state, shift, p, window)):
            assert abs(value - truth) <= room

    @pytest.mark.parametrize("name", sorted(_family_kinds()))
    def test_rows_match_the_factors_bit_for_bit(self, name):
        tail = _family_kinds()[name]
        for lo, hi in ((0, 1), (0, 12), (2, 9), (15, 40), (5000, 5003)):
            want = np.array([tail.factor_at(n).amplitudes for n in range(lo, hi)], dtype=complex)
            got = tail.rows(lo, hi)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_block_norms_match_factor_norms(self):
        tail = _family_kinds()["p-series-shift-3"]
        norms = _row_norms(tail.rows(0, 40))
        assert norms.tolist() == [tail.factor_at(n).norm for n in range(40)]

    def test_canonical_probe_makes_no_per_site_call(self, monkeypatch):
        state = _decoded_p_series(3, 2, 0.5, seed=5)
        calls = []
        original = _CanonicalFamily.__call__

        def counting(self, n):
            calls.append(n)
            return original(self, n)

        monkeypatch.setattr(_CanonicalFamily, "__call__", counting)
        assert q.classify_sequence(state).evidence["method"] == "numeric-probe"
        assert calls == []

    def test_plain_callback_probe_goes_site_by_site(self):
        state = _decoded_p_series(3, 2, 0.5, seed=5)
        family = state.tail.factor_fn
        calls = []

        def plain(n):
            calls.append(n)
            return family(n)

        tail = q.ParametricTail(3, plain, state.tail.limit, state.tail.decay)
        twin = q.ProductState(state.prefix, tail)
        calls.clear()
        evidence = q.classify_sequence(twin).evidence
        assert evidence["method"] == "numeric-probe"
        assert len(calls) == 8192
        assert repr(evidence) == repr(q.classify_sequence(state).evidence)

    def test_non_finite_rows_raise_as_factors_do(self):
        limit = q.FactorVector((0.6, 0.8))
        family = _CanonicalFamily(limit, (complex(math.inf, 0.0), 0j), q.DecaySpec("geometric", ratio=0.5))
        with pytest.raises(q.InvalidAmplitude) as want:
            family(0)
        with pytest.raises(q.InvalidAmplitude) as got:
            family.rows(0, 4)
        assert str(got.value) == str(want.value)
