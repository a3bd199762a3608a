"""Acceptance checklist.

One test per advertised guarantee, each printing a single PASS/FAIL line
so a verbose run reads as a checklist.  Expected values come from closed
forms or from high-precision runs frozen into the assertions; nothing is
recomputed with the code under test.
"""

import csv
import io
import math
import subprocess
import sys
import time

import numpy as np

import qsectors as q
from qsectors.oracle import (
    dense_density,
    dense_expectation,
    dense_overlap,
    densify,
    densify_operator,
)

from support import child_env

# chi-square cutoff for 1 degree of freedom at significance 1e-3
CHI2_CUTOFF_1DF_1E3 = 10.827566170662733

E0 = q.FactorVector((1.0, 0.0))
E1 = q.FactorVector((0.0, 1.0))


def _report(num: int, desc: str, problems: list) -> None:
    ok = not problems
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} ({desc}): " + "; ".join(map(str, problems[:10]))


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "qsectors.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )


def test_criterion_1_spin_chain_decay():
    problems = []
    start = time.monotonic()
    proc = _run_cli("spin-sweep", "--xi", "1", "--n-max", "200")
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: {proc.stderr[:200]}")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    if len(rows) != 200:
        problems.append(f"expected 200 rows, got {len(rows)}")
    half_log2 = 0.5 * math.log(2.0)
    for row in rows:
        n = int(row["n_sites"])
        want_log = -n * half_log2
        got_log = math.log(float(row["modulus"]))
        if abs(got_log - want_log) / abs(want_log) >= 1e-10:
            problems.append(f"overlap off at N={n}")
        want_p_log = -n * math.log(2.0)
        got_p_log = math.log(float(row["probability"]))
        if abs(got_p_log - want_p_log) / abs(want_p_log) >= 1e-10:
            problems.append(f"probability off at N={n}")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget is 1s")
    _report(1, "spin-sweep --xi 1 reproduces 2^(-N/2) in under a second", problems)


def _rand_unit(rng, dim=2):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return q.FactorVector(tuple(v / np.linalg.norm(v)))


def _rand_state(rng, max_prefix=3, allow_parametric=True):
    prefix = tuple(_rand_unit(rng) for _ in range(int(rng.integers(0, max_prefix + 1))))
    if allow_parametric and rng.random() < 0.3:
        limit = _rand_unit(rng)
        direction = _rand_unit(rng)
        ratio = float(rng.uniform(0.3, 0.8))
        amp = float(rng.uniform(0.05, 0.3))

        def fn(n, limit=limit, direction=direction, ratio=ratio, amp=amp):
            raw = tuple(
                l + amp * ratio**n * d
                for l, d in zip(limit.amplitudes, direction.amplitudes)
            )
            return q.FactorVector(raw).normalized()

        tail = q.ParametricTail(
            dim=2,
            factor_fn=fn,
            limit=limit,
            decay=q.DecaySpec(kind="geometric", ratio=ratio, scale=4.0 * amp),
        )
    else:
        tail = q.ConstantTail(_rand_unit(rng))
    return q.ProductState(prefix=prefix, tail=tail)


def _rand_composite(rng):
    k = int(rng.integers(2, 4))
    coeffs = (rng.normal(size=k) + 1j * rng.normal(size=k)) / math.sqrt(2 * k)
    return q.CompositeState(
        tuple((complex(c), _rand_state(rng)) for c in coeffs)
    )


def _rand_operator(rng):
    terms = []
    for _ in range(int(rng.integers(1, 3))):
        coeff = complex(rng.normal(), rng.normal()) / 2.0
        n_ops = int(rng.integers(0, 4))
        prefix = tuple(
            q.FactorOperator(
                (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / 2.0
            )
            for _ in range(n_ops)
        )
        if rng.random() < 0.3:
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            unitary, _ = np.linalg.qr(g)
            tail = q.ConstantOperatorTail(q.FactorOperator(unitary))
        else:
            tail = q.IdentityTail(2)
        terms.append(q.OperatorTerm(coeff, prefix, tail))
    return q.FactoredOperator(tuple(terms))


def _rand_model(rng):
    u = _rand_unit(rng)
    while True:
        w = _rand_unit(rng)
        if abs(q.factor_overlap(u, w) - 1.0) > 1e-3:
            break
    p = float(rng.uniform(0.05, 0.95))
    angle = float(rng.uniform(0, 2 * math.pi))
    phase = complex(math.cos(angle), math.sin(angle))
    branches = tuple(
        q.ProductState(
            prefix=tuple(_rand_unit(rng) for _ in range(int(rng.integers(0, 3)))),
            tail=q.ConstantTail(vec),
        )
        for vec in (u, w)
    )
    return q.MeasurementModel((math.sqrt(p), math.sqrt(1.0 - p) * phase), branches)


def test_criterion_2_dense_oracle_equivalence():
    problems = []
    rng = np.random.default_rng(20260815)
    start = time.monotonic()
    worst = 0.0
    for case in range(350):
        a, b = _rand_state(rng), _rand_state(rng)
        n = int(rng.integers(1, 13))
        got = q.truncated_overlap(a, b, n)
        want = dense_overlap(densify(a, n), densify(b, n))
        err = abs(got - want)
        worst = max(worst, err)
        if err > 1e-10:
            problems.append(f"overlap case {case}: err {err:.2e}")
    for case in range(250):
        a, b = _rand_composite(rng), _rand_composite(rng)
        n = int(rng.integers(1, 13))
        got = q.composite_overlap(a, b, n)
        want = dense_overlap(densify(a, n), densify(b, n))
        err = abs(got - want)
        worst = max(worst, err)
        if err > 1e-10:
            problems.append(f"composite case {case}: err {err:.2e}")
    for case in range(250):
        op, s = _rand_operator(rng), _rand_state(rng)
        # dense operators cap at dim 2^10, still inside the N <= 12 envelope
        n = int(rng.integers(1, 11))
        got = q.expectation_sweep(op, s, [n]).values[0]
        want = dense_expectation(densify_operator(op, n), densify(s, n))
        err = abs(got - want)
        worst = max(worst, err)
        if err > 1e-10:
            problems.append(f"expectation case {case}: err {err:.2e}")
    for case in range(150):
        m = _rand_model(rng)
        n = int(rng.integers(1, 13))
        got = q.truncated_density(m, n).matrix
        want = dense_density(densify(q.premeasurement_state(m), n + 1), 2)
        err = float(np.max(np.abs(got - want)))
        worst = max(worst, err)
        if err > 1e-10:
            problems.append(f"density case {case}: err {err:.2e}")
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget is 60s")
    _report(
        2,
        f"1000 randomized cases match the dense oracle (worst {worst:.2e})",
        problems,
    )


def _sector_suite():
    """Labeled states; two states share a sector exactly when labels match."""

    def rot(theta):
        return q.FactorVector((math.cos(theta), math.sin(theta)))

    def geometric_member(limit, ratio, amp, direction):
        def fn(n):
            raw = tuple(
                l + amp * ratio**n * d
                for l, d in zip(limit.amplitudes, direction.amplitudes)
            )
            return q.FactorVector(raw).normalized()

        return q.ProductState(
            prefix=(),
            tail=q.ParametricTail(
                dim=2,
                factor_fn=fn,
                limit=limit,
                decay=q.DecaySpec(kind="geometric", ratio=ratio, scale=4.0 * amp),
            ),
        )

    def p_series_member(limit, p, amp, direction):
        def fn(n):
            raw = tuple(
                l + amp * (n + 1.0) ** (-p) * d
                for l, d in zip(limit.amplitudes, direction.amplitudes)
            )
            return q.FactorVector(raw).normalized()

        return q.ProductState(
            prefix=(),
            tail=q.ParametricTail(
                dim=2,
                factor_fn=fn,
                limit=limit,
                decay=q.DecaySpec(kind="p-series", p=p, scale=4.0 * amp),
            ),
        )

    rng = np.random.default_rng(99)
    suite = []
    anchors = {
        "up": E0,
        "tilt-04": rot(0.4),
        "tilt-11": rot(1.1),
        "down": E1,
        "spun": q.FactorVector((complex(math.cos(0.5), math.sin(0.5)), 0.0)),
    }
    for name, limit in anchors.items():
        base = q.make_product_state((), q.ConstantTail(limit))
        suite.append((name, base))
        # finite rewrites at up to 20 sites stay inside the sector
        sites = sorted(rng.choice(20, size=4, replace=False).tolist())
        changed = q.apply_finite_change(
            base, {s: _rand_unit(rng) for s in sites}
        )
        suite.append((name, changed))
        suite.append((name, q.apply_finite_change(base, {19: E1})))
        suite.append((name, geometric_member(limit, 0.5, 0.2, _rand_unit(rng))))
        suite.append((name, geometric_member(limit, 0.9, 0.1, _rand_unit(rng))))
        suite.append((name, p_series_member(limit, 2.0, 0.25, _rand_unit(rng))))
        suite.append(
            (name, q.make_product_state((rot(0.7), E1), q.ConstantTail(limit)))
        )
        suite.append(
            (
                name,
                q.apply_finite_change(
                    geometric_member(limit, 0.6, 0.15, _rand_unit(rng)),
                    {7: _rand_unit(rng)},
                ),
            )
        )
        suite.append((name, q.apply_finite_change(base, {0: _rand_unit(rng)})))
        suite.append((name, p_series_member(limit, 1.5, 0.2, _rand_unit(rng))))
        suite.append(
            (
                name,
                q.make_product_state(
                    tuple(_rand_unit(rng) for _ in range(3)),
                    q.ConstantTail(limit),
                ),
            )
        )
    return suite


def test_criterion_3_sector_classifier():
    problems = []
    suite = _sector_suite()
    if len(suite) < 50:
        problems.append(f"suite has only {len(suite)} cases")
    kinds = {}
    for i, (la, a) in enumerate(suite):
        for j, (lb, b) in enumerate(suite):
            verdict = q.same_sector(a, b).kind
            kinds[i, j] = verdict
            want = "SameSector" if la == lb else "DifferentSector"
            if verdict != want:
                problems.append(f"pair ({i},{j}) [{la} vs {lb}]: {verdict}, want {want}")
    n = len(suite)
    for i in range(n):
        if kinds[i, i] != "SameSector":
            problems.append(f"not reflexive at {i}")
    for i in range(n):
        for j in range(n):
            if kinds[i, j] != kinds[j, i]:
                problems.append(f"not symmetric at ({i},{j})")
    for i in range(n):
        for j in range(n):
            if kinds[i, j] != "SameSector":
                continue
            for k in range(n):
                if kinds[j, k] == "SameSector" and kinds[i, k] != "SameSector":
                    problems.append(f"not transitive at ({i},{j},{k})")
    _report(
        3,
        f"{len(suite)}-case sector suite: exact verdicts plus equivalence axioms",
        problems,
    )


def test_criterion_4_operator_sector_action():
    problems = []
    c = math.cos(math.pi / 4)
    s = math.sin(math.pi / 4)
    rotation = ((c, -s), (s, c))
    states = [
        q.make_product_state((), q.ConstantTail(E0)),
        q.make_product_state((E1, _rand_unit(np.random.default_rng(3))),
                             q.ConstantTail(E0)),
    ]
    finite_ops = [
        q.FactoredOperator(
            (q.OperatorTerm(1.0, (q.FactorOperator(rotation),), q.IdentityTail(2)),)
        ),
        q.FactoredOperator(
            (
                q.OperatorTerm(
                    0.5j,
                    (
                        q.identity_operator(2),
                        q.FactorOperator(((0.0, 1.0), (1.0, 0.0))),
                        q.FactorOperator(((1.0, 0.0), (0.0, -1.0))),
                    ),
                    q.IdentityTail(2),
                ),
            )
        ),
    ]
    for idx, op in enumerate(finite_ops):
        for jdx, state in enumerate(states):
            v = q.sector_action(op, state)
            if v.kind != "PreservesSector":
                problems.append(f"finite op {idx} on state {jdx}: {v.kind}")

    global_rotation = q.FactoredOperator(
        (q.OperatorTerm(1.0, (), q.ConstantOperatorTail(q.FactorOperator(rotation))),)
    )
    v = q.sector_action(global_rotation, states[0])
    if v.kind != "LeavesSector":
        problems.append(f"global rotation: {v.kind}")

    sweep = q.expectation_sweep(global_rotation, states[0], range(1, 51))
    # closed form: <0|R|0>^N = cos(pi/4)^N = 2^(-N/2), first below 1e-6 at 40
    first = sweep.first_below(1e-6)
    if first != 40:
        problems.append(f"first_below(1e-6) = {first}, closed form says 40")
    at_44 = sweep.values[list(sweep.truncations).index(44)]
    if abs(at_44.real - 2.384185791015625e-07) > 1e-16 or abs(at_44.imag) > 1e-16:
        problems.append(f"value at N=44 is {at_44!r}, want 2.384e-7")
    if not abs(at_44) < 1e-6:
        problems.append("value at N=44 not below 1e-6")
    for n, value in zip(sweep.truncations, sweep.values):
        if abs(value - c**n) > 1e-12:
            problems.append(f"sweep value off at N={n}")
            break
    _report(
        4,
        "finite-support unitaries preserve the sector; the global rotation leaves it "
        "and its sweep crosses 1e-6 on the closed-form schedule",
        problems,
    )


def test_criterion_5_decoherence_model():
    problems = []
    kicked = q.make_product_state((), q.ConstantTail(q.FactorVector((0.9, math.sqrt(1 - 0.81)))))
    quiet = q.make_product_state((), q.ConstantTail(E0))
    model = q.MeasurementModel((2**-0.5, 2**-0.5), (quiet, kicked))
    log_half = math.log(0.5)
    log_eta = math.log(0.9)
    for n in range(1, 401):
        rho = q.truncated_density(model, n)  # constructor enforces the invariants
        m = rho.matrix
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            problems.append(f"not Hermitian at N={n}")
        if abs(np.trace(m).real - 1.0) > 1e-12:
            problems.append(f"trace off at N={n}")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            problems.append(f"negative eigenvalue at N={n}")
        got = math.log(rho.coherence(0, 1))
        want = log_half + n * log_eta
        if abs(got - want) > 1e-12:
            problems.append(f"off-diagonal log off at N={n}: {got} vs {want}")
    horizon = q.decoherence_horizon(model, 1e-6)
    if horizon != 125:
        problems.append(f"horizon {horizon}, closed form says 125")
    _report(
        5,
        "0.9-overlap device: valid rho_N for N<=400, exact log decay, horizon 125",
        problems,
    )


def test_criterion_6_born_sampling():
    problems = []
    quiet = q.make_product_state((), q.ConstantTail(E0))
    kicked = q.make_product_state((), q.ConstantTail(q.FactorVector((0.8, 0.6))))
    for weights, probs in (
        ((2**-0.5, 2**-0.5), (0.5, 0.5)),
        ((0.3, math.sqrt(0.91)), (0.09, 0.91)),
    ):
        model = q.MeasurementModel(weights, (quiet, kicked))
        samples = q.sample_outcomes(model, 100_000, seed=2026)
        again = q.sample_outcomes(model, 100_000, seed=2026)
        if samples.tobytes() != again.tobytes():
            problems.append(f"library rerun differs for probs {probs}")
        counts = np.bincount(samples, minlength=2)
        expected = np.array(probs) * 100_000
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        if chi2 >= CHI2_CUTOFF_1DF_1E3:
            problems.append(f"chi-square {chi2:.2f} fails for probs {probs}")
    from qsectors.serialize import dumps, encode_model

    import tempfile, os

    model = q.MeasurementModel((0.3, math.sqrt(0.91)), (quiet, kicked))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w") as fh:
            fh.write(dumps(encode_model(model)))
        first = _run_cli("sample", path, "--count", "10000", "--seed", "2026")
        second = _run_cli("sample", path, "--count", "10000", "--seed", "2026")
    if first.returncode != 0:
        problems.append(f"CLI exit {first.returncode}")
    if first.stdout != second.stdout:
        problems.append("CLI rerun is not byte-identical")
    _report(6, "seeded Born sampling passes chi-square and reruns bit-exact", problems)


def test_criterion_7_qnd_cascade():
    problems = []
    result = q.run_cascade(q.default_cascade())
    if result.total_records != 51010:
        problems.append(f"total records {result.total_records}")
    if not (-223.0 <= result.log10_coherence <= -222.8):
        problems.append(f"log10 coherence {result.log10_coherence}")
    logs = [s.log10_coherence for s in result.stages]
    if logs != sorted(logs, reverse=True):
        problems.append(f"stage logs not non-increasing: {logs}")
    cums = [s.cumulative_records for s in result.stages]
    if cums != [10, 1010, 51010]:
        problems.append(f"cumulative records {cums}")
    _report(
        7,
        "default cascade: 51010 records, log10 coherence -222.9 +/- 0.1, "
        "monotone stage report",
        problems,
    )


def test_criterion_8_product_classifier():
    problems = []
    sinh_pi_over_pi = math.sinh(math.pi) / math.pi

    def check(label, spec, kind, value=None, tol=0.0):
        verdict = q.classify_product(spec)
        if verdict.kind != kind:
            problems.append(f"{label}: {verdict.kind}, want {kind}")
        elif value is not None and abs(verdict.value - value) > tol:
            problems.append(f"{label}: value {verdict.value}, want {value}")

    check(
        "constant 1",
        q.ComplexSequenceSpec(tail=q.ConstantValue(1.0)),
        "ConvergesTo",
        1.0 + 0j,
    )
    check(
        "constant 1/2",
        q.ComplexSequenceSpec(tail=q.ConstantValue(0.5)),
        "ConvergesTo",
        0j,
    )
    check(
        "harmonic phase drift",
        q.ComplexSequenceSpec(
            tail=q.ClosedFormTail(
                term_fn=lambda n: complex(math.cos(1.0 / n), math.sin(1.0 / n)),
                klass="bounded-nonsummable-argument",
            )
        ),
        "QuasiConvergesToZero",
        0j,
    )
    check(
        "one plus inverse squares",
        q.ComplexSequenceSpec(
            tail=q.ClosedFormTail(
                term_fn=lambda n: 1.0 + 1.0 / (n * n),
                klass="p-series-log-modulus",
                p=2.0,
            )
        ),
        "ConvergesTo",
        complex(sinh_pi_over_pi),
        1e-6,
    )
    check(
        "constant 1.01",
        q.ComplexSequenceSpec(tail=q.ConstantValue(1.01)),
        "Diverges",
    )
    _report(8, "product classifier verdict suite (5/5 closed forms)", problems)
