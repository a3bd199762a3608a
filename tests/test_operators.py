import cmath
import math

import numpy as np
import pytest

import qsectors as q
from qsectors.oracle import (
    dense_expectation,
    dense_overlap,
    densify,
    densify_operator,
)

from support import random_factor, random_operator, random_product_state

E0 = q.FactorVector((1.0, 0.0))
E1 = q.FactorVector((0.0, 1.0))
PLUS = q.FactorVector((2**-0.5, 2**-0.5))

PAULI_X = ((0.0, 1.0), (1.0, 0.0))
PAULI_Z = ((1.0, 0.0), (0.0, -1.0))


def constant_state(prefix=(), tail_vec=E0):
    return q.make_product_state(prefix, q.ConstantTail(tail_vec))


def single_site(matrix, site=0, dim=2, coefficient=1.0):
    prefix = tuple(
        q.identity_operator(dim) if k < site else q.FactorOperator(matrix)
        for k in range(site + 1)
    )
    return q.FactoredOperator(
        (q.OperatorTerm(coefficient, prefix, q.IdentityTail(dim)),)
    )


def global_op(matrix, dim=2, coefficient=1.0):
    return q.FactoredOperator(
        (
            q.OperatorTerm(
                coefficient, (), q.ConstantOperatorTail(q.FactorOperator(matrix))
            ),
        )
    )


class TestFactorOperator:
    def test_rejects_non_square(self):
        with pytest.raises(q.ShapeMismatch):
            q.FactorOperator(((1.0, 0.0),))

    def test_rejects_non_finite(self):
        with pytest.raises(q.InvalidAmplitude):
            q.FactorOperator(((float("nan"), 0.0), (0.0, 1.0)))

    def test_norm_bound_is_largest_singular_value(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            u = q.FactorOperator(m)
            assert u.norm_bound == pytest.approx(np.linalg.norm(m, 2))

    def test_identity_and_hermitian_flags(self):
        assert q.identity_operator(3).is_identity
        assert q.FactorOperator(PAULI_X).is_hermitian
        assert not q.FactorOperator(((0.0, 1.0), (0.0, 0.0))).is_hermitian

    def test_apply_to(self):
        out = q.FactorOperator(PAULI_X).apply_to(E0)
        assert out.amplitudes == (0.0, 1.0)
        with pytest.raises(q.ShapeMismatch):
            q.FactorOperator(PAULI_X).apply_to(q.basis_vector(3, 0))

    def test_matrix_is_read_only(self):
        u = q.FactorOperator(PAULI_X)
        with pytest.raises(ValueError):
            u.matrix[0, 0] = 5.0


class TestFactoredOperator:
    def test_needs_terms(self):
        with pytest.raises(q.PreconditionViolated):
            q.FactoredOperator(())

    def test_terms_must_agree_on_dims(self):
        a = q.OperatorTerm(1.0, (q.identity_operator(2),), q.IdentityTail(2))
        b = q.OperatorTerm(1.0, (q.identity_operator(3),), q.IdentityTail(2))
        with pytest.raises(q.ShapeMismatch):
            q.FactoredOperator((a, b))

    def test_support_and_finiteness(self):
        op = single_site(PAULI_X, site=2)
        assert op.finite_support
        assert op.support == (2,)
        assert not global_op(PAULI_Z).finite_support

    def test_norm_bound_dominates_dense_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            op = random_operator(rng, dim=2, n_terms=2, max_prefix=2)
            bound = op.norm_bound(4)
            dense = densify_operator(op, 4)
            assert bound + 1e-9 >= np.linalg.norm(dense, 2)

    @staticmethod
    def _scaled_tail_operator(tail_norm):
        """Two terms: a 3-site prefix under a tail scaled to ``tail_norm``,
        and a finitely supported one."""
        prefix = (np.diag([2.0, 0.5]), np.array(PAULI_X), np.diag([0.25, 1.0]))
        return q.FactoredOperator((
            q.OperatorTerm(
                0.5 - 1j,
                tuple(q.FactorOperator(m) for m in prefix),
                q.ConstantOperatorTail(q.FactorOperator(tail_norm * np.array(PAULI_Z))),
            ),
            q.OperatorTerm(3.0, (q.FactorOperator(np.eye(2)),), q.IdentityTail(2)),
        ))

    @staticmethod
    def _site_by_site(op, truncation):
        total = 0.0
        for t in op.terms:
            prod = 1.0
            for site in range(truncation):
                u = t.op_at(site)
                prod *= u.norm_bound if u is not None else 1.0
            total += abs(t.coefficient) * prod
        return total

    @pytest.mark.parametrize("tail_norm", [0.5, 1.5])
    def test_norm_bound_reads_the_tail_in_closed_form(self, tail_norm):
        op = self._scaled_tail_operator(tail_norm)
        # within the prefix, and for no sites at all, the bits are the loop's
        for truncation in (-1, 0, 1, 2, 3):
            assert op.norm_bound(truncation) == self._site_by_site(op, truncation)
        assert op.norm_bound(-5) == abs(0.5 - 1j) + 3.0
        assert op.norm_bound(1000) == pytest.approx(self._site_by_site(op, 1000), rel=1e-12)
        # 10**12 sites would take days one at a time
        far = op.norm_bound(10**12)
        assert far == (3.0 if tail_norm < 1.0 else math.inf)

    def test_state_dim_mismatch(self):
        three = q.make_product_state((), q.ConstantTail(q.basis_vector(3, 0)))
        with pytest.raises(q.ShapeMismatch):
            q.apply_operator(single_site(PAULI_X), three)

    # (operator prefix dims, tail dim), (state prefix dims, tail dim): a
    # mismatch at the first site, a middle site, the last prefix site of
    # either side, in the tail, and none
    MISMATCHES = [
        (([3] + [2] * 9, 2), ([2] * 100, 2)),
        (([2] * 10, 2), ([2] * 50 + [3] * 50, 2)),
        (([2] * 10, 2), ([2] * 99 + [1], 2)),
        (([2] * 9 + [4], 2), ([2] * 100, 2)),
        (([2] * 70, 2), ([2] * 70, 3)),
        (([4] * 80, 2), ([4] * 80, 2)),
    ]

    @pytest.mark.parametrize("op_dims, state_dims", MISMATCHES)
    def test_state_dim_mismatch_messages(self, op_dims, state_dims):
        from qsectors.operators import _check_op_state_dims

        rng = np.random.default_rng(0)
        op = q.FactoredOperator((
            q.OperatorTerm(
                1.0,
                tuple(q.identity_operator(d) for d in op_dims[0]),
                q.ConstantOperatorTail(q.identity_operator(op_dims[1])),
            ),
        ))
        state = q.ProductState(
            tuple(random_factor(rng, d) for d in state_dims[0]),
            q.ConstantTail(random_factor(rng, state_dims[1])),
        )
        message = _op_state_message_by_site(op, state)
        if message is None:
            _check_op_state_dims(op, state)
            return
        with pytest.raises(q.ShapeMismatch) as err:
            _check_op_state_dims(op, state)
        assert str(err.value) == message


def _op_state_message_by_site(op, state):
    """The site-by-site check _check_op_state_dims replaced, as a reference."""
    span = max(max(len(t.prefix_ops) for t in op.terms), state.prefix_len)
    for site in range(span):
        if op.dim_at(site) != state.dim_at(site):
            return (
                f"operator dim {op.dim_at(site)} vs state dim "
                f"{state.dim_at(site)} at site {site}"
            )
    if op.tail_dim != state.tail_dim:
        return f"operator tail dim {op.tail_dim} vs state tail dim {state.tail_dim}"
    return None


class TestApplyOperator:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            op = random_operator(rng, dim=2, n_terms=2, max_prefix=2)
            s = random_product_state(rng, dim=2, unit=False)
            n = 4
            got = densify(q.apply_operator(op, s), n).amplitudes
            want = densify_operator(op, n) @ densify(s, n).amplitudes
            assert np.max(np.abs(got - want)) < 1e-10

    def test_constant_tail_is_rotated(self):
        out = q.apply_operator(global_op(PAULI_X), constant_state())
        term_state = out.terms[0][1]
        assert isinstance(term_state.tail, q.ConstantTail)
        assert term_state.tail.vector.amplitudes == (0.0, 1.0)

    def test_parametric_tail_keeps_certificate(self):
        s = random_product_state(np.random.default_rng(1), dim=2, parametric=True)
        op = global_op(2.0 * np.eye(2))
        out = q.apply_operator(op, s)
        new_tail = out.terms[0][1].tail
        assert isinstance(new_tail, q.ParametricTail)
        # the bound stretches by at most the operator norm
        assert new_tail.decay.scale == pytest.approx(2.0 * s.tail.decay.scale)
        assert new_tail.factor_at(3).amplitudes == pytest.approx(
            tuple(2.0 * a for a in s.tail.factor_at(3).amplitudes)
        )


DECLARATIONS = [
    q.DecaySpec("geometric", ratio=0.6, scale=0.3),
    q.DecaySpec("p-series", p=1.5, scale=0.3),
    q.DecaySpec("eventually-constant", rank=4, scale=0.3),
    q.DecaySpec("custom-certified", scale=0.3),
]


def declared_state(decay, limit_norm=1.0):
    limit = PLUS.scaled(limit_norm)

    def fn(n):
        return q.FactorVector((limit.amplitudes[0] + 0.1 * 0.5**n, limit.amplitudes[1]))

    return q.make_product_state((E0,), q.ParametricTail(2, fn, limit, decay))


class TestDeclarationsSurviveFactorwiseMaps:
    """Factor-wise maps rescale a declared decay and keep everything else."""

    @staticmethod
    def assert_rescaled(new, old, scale):
        assert (new.kind, new.ratio, new.p, new.rank) == (
            old.kind,
            old.ratio,
            old.p,
            old.rank,
        )
        assert new.scale == scale

    @pytest.mark.parametrize("decay", DECLARATIONS, ids=lambda d: d.kind)
    def test_normed_representative(self, decay):
        s = declared_state(decay, limit_norm=0.8)
        new = q.normed_representative(s).tail.decay
        self.assert_rescaled(new, decay, 2.0 * decay.scale / s.tail.limit.norm)

    @pytest.mark.parametrize("decay", DECLARATIONS, ids=lambda d: d.kind)
    def test_apply_operator_with_constant_tail(self, decay):
        op = global_op(((0.0, 2.0), (1.0, 0.0)))
        out = q.apply_operator(op, declared_state(decay))
        new = out.terms[0][1].tail.decay
        self.assert_rescaled(new, decay, decay.scale * op.terms[0].tail.operator.norm_bound)


class TestTermImages:
    """A term maps one factor, or a block of factor rows, site by site."""

    @staticmethod
    def terms(rng):
        ops = [q.FactorOperator(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
               for _ in range(11)]
        for prefix in ((), ops[:3], ops[:10]):
            yield q.OperatorTerm(1.0, prefix, q.IdentityTail(2))
            yield q.OperatorTerm(1.0, prefix, q.ConstantOperatorTail(ops[10]))

    def test_image_at_is_the_factor_or_its_operator_image(self):
        rng = np.random.default_rng(5)
        f = random_factor(rng, 2)
        for t in self.terms(rng):
            for site in range(14):
                u = t.op_at(site)
                image = t.image_at(site, f)
                if u is None:
                    assert image is f
                else:
                    want = u.apply_to(f)
                    assert np.array(image.amplitudes).tobytes() == np.array(want.amplitudes).tobytes()

    @pytest.mark.parametrize("d", range(1, 17))
    def test_image_rows_keep_the_bits_of_image_at(self, d):
        # blocks from 0, 2 and 8 start before or inside the 3- and 10-site
        # prefix operators and may end inside them; those from 12 start past
        rng = np.random.default_rng(d)
        ops = [q.FactorOperator(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
               for _ in range(11)]
        for prefix in ((), ops[:3], ops[:10]):
            for tail in (q.IdentityTail(d), q.ConstantOperatorTail(ops[10])):
                t = q.OperatorTerm(1.0, prefix, tail)
                for lo, sites in ((0, 2), (0, 40), (2, 5), (8, 6), (12, 30)):
                    f = rng.normal(size=(sites, d)) + 1j * rng.normal(size=(sites, d))
                    out = np.empty_like(f)
                    t.image_rows(lo, f, out)
                    for k, row in enumerate(f):
                        want = t.image_at(lo + k, q.FactorVector(tuple(row.tolist())))
                        assert out[k].tobytes() == np.array(want.amplitudes).tobytes()


class TestSectorAction:
    def test_requires_non_trivial_state(self):
        shrink = constant_state(tail_vec=q.FactorVector((0.9, 0.0)))
        with pytest.raises(q.PreconditionViolated):
            q.sector_action(single_site(PAULI_X), shrink)

    def test_requires_unit_factors(self):
        s = q.make_product_state(
            (q.FactorVector((2.0, 0.0)),), q.ConstantTail(E0)
        )
        with pytest.raises(q.PreconditionViolated):
            q.sector_action(single_site(PAULI_X), s)

    def test_finite_support_preserves(self):
        v = q.sector_action(single_site(PAULI_X, site=3), constant_state())
        assert v.kind == "PreservesSector"
        assert v.witness["kind"] == "finite-support"
        assert v.witness["support"] == (3,)

    def test_fixed_tail_preserves(self):
        phase = ((1.0, 0.0), (0.0, cmath.exp(0.3j)))
        v = q.sector_action(global_op(phase), constant_state())
        assert v.kind == "PreservesSector"
        assert v.witness["kind"] == "fixed-tail"

    def test_rotation_leaves(self):
        c, s = math.cos(0.25), math.sin(0.25)
        v = q.sector_action(global_op(((c, -s), (s, c))), constant_state())
        assert v.kind == "LeavesSector"
        w = v.witness["witness"]
        assert w["modulus_deficit"] == pytest.approx(1.0 - c)

    def test_tail_annihilation_is_inconclusive(self):
        lower = ((0.0, 0.0), (1.0, 0.0))
        v = q.sector_action(global_op(lower), constant_state(tail_vec=E1))
        assert v.kind == "Inconclusive"
        assert "annihilates" in v.witness["reason"]

    def test_gray_rotation_is_inconclusive(self):
        theta = 3e-5  # deficit theta^2/2 ~ 4.5e-10 lands between thresholds
        c, s = math.cos(theta), math.sin(theta)
        v = q.sector_action(global_op(((c, -s), (s, c))), constant_state(tail_vec=PLUS))
        assert v.kind == "Inconclusive"

    def test_zero_coefficient_terms_are_skipped(self):
        op = q.FactoredOperator(
            (
                q.OperatorTerm(0.0, (), q.ConstantOperatorTail(q.FactorOperator(PAULI_X))),
                q.OperatorTerm(1.0, (q.FactorOperator(PAULI_Z),), q.IdentityTail(2)),
            )
        )
        v = q.sector_action(op, constant_state())
        assert v.kind == "PreservesSector"


class TestExpectationSweep:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            op = random_operator(rng, dim=2, n_terms=2, max_prefix=2)
            s = random_product_state(rng, dim=2, unit=False)
            sweep = q.expectation_sweep(op, s, [3, 5])
            for n, v in zip(sweep.truncations, sweep.values):
                want = dense_expectation(densify_operator(op, n), densify(s, n))
                assert abs(v - want) < 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("parametric", [False, True])
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_bit_identical_to_overlap_sweep_of_image(self, seed, parametric):
        # both walk the same pairs; only where the images come from differs
        rng = np.random.default_rng(seed)
        op = random_operator(rng, dim=3, n_terms=4, max_prefix=3)
        s = random_product_state(rng, dim=3, max_prefix=5, parametric=parametric)
        self.assert_same_bits(op, s, [1, 2, 7, 64, 65, 150])

    @pytest.mark.parametrize("parametric", [False, True])
    @pytest.mark.parametrize("seed", [5, 10, 13])
    def test_bit_identical_to_overlap_sweep_of_image_in_blocks(self, seed, parametric):
        # these seeds draw explicit prefixes of 91, 326 and 278 sites and
        # constant tail operators, so images are bracketed in blocks
        rng = np.random.default_rng(seed)
        op = random_operator(rng, dim=3, n_terms=4, max_prefix=120)
        s = random_product_state(rng, dim=3, max_prefix=400, parametric=parametric)
        assert s.prefix_len > 64
        self.assert_same_bits(op, s, [1, 2, 7, 64, 65, 100, 150, 300, 401, 450])

    @staticmethod
    def assert_same_bits(op, s, cuts):
        got = q.expectation_sweep(op, s, cuts)
        want = q.overlap_sweep(s, q.apply_operator(op, s), cuts)
        assert got.truncations == want.truncations
        assert repr(got.values) == repr(want.values)
        assert repr(got.log_modulus) == repr(want.log_modulus)

    def test_requires_cuts(self):
        with pytest.raises(q.PreconditionViolated):
            q.expectation_sweep(single_site(PAULI_Z), constant_state(), [])

    def test_projector_expectation_decays_geometrically(self):
        # <+|0><0|+> per site, so the running expectation halves each cut
        proj = ((1.0, 0.0), (0.0, 0.0))
        sweep = q.expectation_sweep(
            global_op(proj), constant_state(tail_vec=PLUS), range(1, 30)
        )
        for n, v in zip(sweep.truncations, sweep.values):
            assert abs(v - 0.5**n) < 1e-14


class TestEvolve:
    def test_survival_traces_a_cosine(self):
        h = single_site(PAULI_X)
        for t in (0.0, 0.3, 1.1, 2.0):
            out = q.evolve(h, constant_state(), t, truncation=5)
            assert abs(out.survival - math.cos(t)) < 1e-12

    def test_preserves_norm(self):
        rng = np.random.default_rng(4)
        h = global_op(np.array(PAULI_Z) * 0.7)
        s = random_product_state(rng, dim=2, max_prefix=2)
        out = q.evolve(h, s, 0.9, truncation=6)
        n = q.composite_overlap(out.state, out.state, 6)
        assert n.real == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_propagator(self):
        # a constant generator tail means one copy of h per site; the global
        # propagator is then exp(i t sum_k h_k), which must factorize
        from scipy.linalg import expm

        rng = np.random.default_rng(8)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = m + m.conj().T
        s = random_product_state(rng, dim=2, max_prefix=2)
        n, t = 4, 0.37
        out = q.evolve(global_op(h), s, t, truncation=n)
        h_sum = sum(
            np.kron(np.kron(np.eye(2**k), h), np.eye(2 ** (n - 1 - k)))
            for k in range(n)
        )
        want = expm(1j * t * h_sum) @ densify(s, n).amplitudes
        got = densify(out.state, n).amplitudes
        assert np.max(np.abs(got - want)) < 1e-10
        assert abs(out.survival - np.vdot(densify(s, n).amplitudes, want)) < 1e-10

    def test_rejects_multi_term_generator(self):
        op = q.FactoredOperator(
            (
                q.OperatorTerm(1.0, (q.FactorOperator(PAULI_X),), q.IdentityTail(2)),
                q.OperatorTerm(1.0, (q.FactorOperator(PAULI_Z),), q.IdentityTail(2)),
            )
        )
        with pytest.raises(q.NonFactorizableGenerator) as exc:
            q.evolve(op, constant_state(), 1.0, truncation=3)
        assert exc.value.context["n_terms"] == 2

    def test_rejects_complex_coefficient(self):
        with pytest.raises(q.NonHermitianGenerator):
            q.evolve(
                single_site(PAULI_X, coefficient=1.0j),
                constant_state(),
                1.0,
                truncation=3,
            )

    def test_rejects_non_hermitian_matrix(self):
        raising = ((0.0, 1.0), (0.0, 0.0))
        with pytest.raises(q.NonHermitianGenerator):
            q.evolve(single_site(raising), constant_state(), 1.0, truncation=3)

    def test_rejects_oversized_factor(self):
        dim = 17
        big = q.make_product_state((), q.ConstantTail(q.basis_vector(dim, 0)))
        h = q.FactoredOperator(
            (
                q.OperatorTerm(
                    1.0,
                    (),
                    q.ConstantOperatorTail(q.FactorOperator(np.eye(dim))),
                ),
            )
        )
        with pytest.raises(q.DimensionBudgetExceeded):
            q.evolve(h, big, 1.0, truncation=2)


# -- refusals and skipped terms -------------------------------------------------

TERM_REFUSALS = {
    "infinite-coefficient": (
        q.InvalidAmplitude, lambda: q.OperatorTerm(math.inf, (), q.IdentityTail(2))
    ),
    "nan-coefficient": (
        q.InvalidAmplitude, lambda: q.OperatorTerm(complex(0.0, math.nan), (), q.IdentityTail(2))
    ),
    "matrix-tail": (q.ShapeMismatch, lambda: q.OperatorTerm(1.0, (), q.FactorOperator(PAULI_X))),
    "dim-tail": (q.ShapeMismatch, lambda: q.OperatorTerm(1.0, (), 2)),
}


@pytest.mark.parametrize("case", sorted(TERM_REFUSALS))
def test_operator_terms_refuse_bad_coefficients_and_tails(case):
    error, build = TERM_REFUSALS[case]
    with pytest.raises(error):
        build()


def test_sector_action_skips_a_term_whose_prefix_operator_annihilates_a_factor():
    # the first term's projector zeroes the first factor E0, so its rotating
    # tail, which alone would leave the sector, never counts
    c, s = math.cos(0.25), math.sin(0.25)
    onto_e1 = q.FactorOperator(((0.0, 0.0), (0.0, 1.0)))
    rotation = q.ConstantOperatorTail(q.FactorOperator(((c, -s), (s, c))))
    op = q.FactoredOperator((
        q.OperatorTerm(1.0, (onto_e1,), rotation),
        q.OperatorTerm(1.0, (), q.IdentityTail(2)),
    ))
    v = q.sector_action(op, constant_state())
    assert v.kind == "PreservesSector"
    assert [r["term"] for r in v.witness["terms"]] == [1]
    alone = q.FactoredOperator((q.OperatorTerm(1.0, (), rotation),))
    assert q.sector_action(alone, constant_state()).kind == "LeavesSector"
