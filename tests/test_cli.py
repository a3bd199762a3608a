import json
import math
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qsectors as q
from qsectors.cli import main
from qsectors.serialize import decode_model, dumps, encode_model, encode_operator, encode_state, loads
from qsectors.states import WALK_BUDGET

from support import (
    BROKEN_SCALE_STATE,
    CANONICAL_DOCUMENTS,
    MALFORMED_DOCUMENTS,
    MALFORMED_OPERATORS,
    child_env,
)

QUIET = q.make_product_state((), q.ConstantTail(q.FactorVector((1.0, 0.0))))
KICKED = q.make_product_state((), q.ConstantTail(q.FactorVector((0.8, 0.6))))


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(payload if isinstance(payload, str) else dumps(payload))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_of(err):
    lines = [json.loads(line) for line in err.strip().splitlines()]
    summaries = [l for l in lines if l.get("kind") == "summary"]
    assert len(summaries) == 1
    return summaries[0]


class TestProductClassify:
    def test_geometric_sequence(self, capsys, files):
        seq = files(
            "seq.json",
            {"tail": {"kind": "geometric-one-plus", "coefficient": 1.0, "ratio": 0.5}},
        )
        code, out, err = run(capsys, "product-classify", seq)
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "ConvergesTo"
        assert abs(doc["value"]["re"] - 2.3842310290313717) < 1e-8
        assert err == ""

    def test_pretty_and_out_file(self, capsys, files, tmp_path):
        seq = files("seq.json", {"tail": {"kind": "constant-value", "value": 0.5}})
        target = tmp_path / "verdict.json"
        code, out, _ = run(
            capsys, "product-classify", seq, "--pretty", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["kind"] == "ConvergesTo"
        assert "\n" in target.read_text()

    def test_require_exact_refuses_custom(self, capsys, files):
        seq = files(
            "seq.json",
            {"tail": {"kind": "phase-drift", "coefficient": 1.0, "p": 2.0}},
        )
        code, _, err = run(capsys, "product-classify", seq, "--require-exact")
        assert code == 3
        assert json.loads(err)["code"] == "undeclared-tail-class"

    def test_a_budget_past_the_cap_exits_3_before_any_term_is_read(self, capsys, files):
        seq = files(
            "seq.json",
            {"tail": {"kind": "phase-drift", "coefficient": 1.0, "p": 0.5}},
        )
        code, out, err = run(capsys, "product-classify", seq, "--budget", "1000000000")
        assert code == 3
        assert out == ""
        payload = json.loads(err)
        assert payload["code"] == "dimension-budget-exceeded"
        assert payload["context"] == {"terms": 10**9, "budget": WALK_BUDGET}

    def test_a_nan_p_exits_3_before_any_term_is_read(self, capsys, files):
        seq = files(
            "seq.json",
            {"tail": {"kind": "p-series-one-plus", "coefficient": 0.3, "p": "nan"}},
        )
        code, out, err = run(capsys, "product-classify", seq)
        assert (code, out) == (3, "")
        payload = json.loads(err)
        assert payload["code"] == "undeclared-tail-class"
        assert payload["message"] == "p-series-log-modulus needs p > 0"

    @pytest.mark.parametrize(
        "tail", [{"kind": "constant-value", "value": 1}, {"kind": "geometric-one-plus", "ratio": 0.5}]
    )
    def test_a_value_past_the_float_range_is_inconclusive(self, capsys, files, tail):
        # the product is about 1e400: no clamped value, no inf
        seq = files("seq.json", {"prefix": [1e200, 1e200], "tail": tail})
        code, out, err = run(capsys, "product-classify", seq)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["kind"] == "Inconclusive" and doc["value"] is None
        assert "lies past the float range" in out and "inf" not in out

    def test_malformed_json(self, capsys, files):
        bad = files("bad.json", "{oops")
        code, _, err = run(capsys, "product-classify", bad)
        assert code == 2
        assert json.loads(err)["code"] == "usage-error"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "product-classify", str(tmp_path / "absent.json"))
        assert code == 2
        assert json.loads(err)["code"] == "io-error"


class TestSectorTest:
    def test_different_sectors(self, capsys, files):
        a = files("a.json", encode_state(QUIET))
        b = files("b.json", encode_state(KICKED))
        code, out, _ = run(capsys, "sector-test", a, b)
        assert code == 0
        doc = json.loads(out)
        assert doc["type"] == "sector-test"
        assert doc["a_class"]["kind"] == "NonTrivialConvergentSequence"
        assert doc["verdict"]["kind"] == "DifferentSector"

    def test_same_sector(self, capsys, files):
        flipped = q.apply_finite_change(QUIET, {0: (0.0, 1.0)})
        a = files("a.json", encode_state(QUIET))
        b = files("b.json", encode_state(flipped))
        code, out, _ = run(capsys, "sector-test", a, b)
        assert code == 0
        assert json.loads(out)["verdict"]["kind"] == "SameSector"

    def test_trivial_state_is_a_computation_failure(self, capsys, files):
        shrink = q.make_product_state(
            (), q.ConstantTail(q.FactorVector((0.9, 0.0)))
        )
        a = files("a.json", encode_state(shrink))
        b = files("b.json", encode_state(QUIET))
        code, _, err = run(capsys, "sector-test", a, b)
        assert code == 3
        assert json.loads(err)["code"] == "precondition-violated"

    def test_a_deviation_above_its_declared_scale_exits_3(self, capsys, files):
        a = files("a.json", BROKEN_SCALE_STATE)
        b = files("b.json", encode_state(KICKED))
        code, out, err = run(capsys, "sector-test", a, b)
        assert code == 3
        assert out == ""
        assert json.loads(err)["code"] == "undeclared-tail-class"

    def test_composite_input_is_a_usage_error(self, capsys, files):
        doc = encode_state(q.CompositeState(((1.0, QUIET),)))
        a = files("a.json", doc)
        b = files("b.json", encode_state(QUIET))
        code, _, err = run(capsys, "sector-test", a, b)
        assert code == 2
        assert json.loads(err)["code"] == "usage-error"


class TestOverlapSweep:
    def test_csv_values(self, capsys, files):
        a = files("a.json", encode_state(QUIET))
        b = files("b.json", encode_state(KICKED))
        code, out, err = run(capsys, "overlap-sweep", a, b, "--cuts", "1,2,4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "truncation,re,im,modulus,log10_modulus"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == pytest.approx(0.8)
        assert float(lines[3].split(",")[3]) == pytest.approx(0.8**4)
        assert err == ""

    def test_eps_summary(self, capsys, files):
        a = files("a.json", encode_state(QUIET))
        b = files("b.json", encode_state(KICKED))
        code, _, err = run(
            capsys, "overlap-sweep", a, b, "--max", "40", "--eps", "0.01"
        )
        assert code == 0
        s = summary_of(err)
        # 0.8^21 is the first power below 0.01
        assert s["first_below"] == 21

    def test_stdin_state(self, capsys, files, monkeypatch):
        import io

        b = files("b.json", encode_state(KICKED))
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(dumps(encode_state(QUIET)))
        )
        code, out, _ = run(capsys, "overlap-sweep", "-", b, "--cuts", "2")
        assert code == 0
        assert float(out.splitlines()[1].split(",")[3]) == pytest.approx(0.64)

    def test_requires_some_cut_flag(self, capsys, files):
        a = files("a.json", encode_state(QUIET))
        code, _, err = run(capsys, "overlap-sweep", a, a)
        assert code == 2
        assert "cuts" in json.loads(err)["message"]

    def test_cuts_past_the_float_range_read_zero(self, capsys, files):
        a = files("a.json", encode_state(QUIET))
        b = files("b.json", encode_state(q.ProductState((), q.ConstantTail(q.FactorVector((0.6, 0.8))))))
        code, out, err = run(
            capsys, "overlap-sweep", a, b, "--max", str(10**400), "--step", str(10**399)
        )
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [k * 10**399 for k in range(1, 11)]
        assert rows[-1][1:] == ["0.0", "0.0", "0.0", "-inf"]

    def test_constant_tails_far_out_take_the_closed_form(self, capsys, files):
        a = files("a.json", encode_state(QUIET))
        b = files("b.json", encode_state(KICKED))
        code, out, _ = run(capsys, "overlap-sweep", a, b, "--cuts", "10,1000000000000")
        assert code == 0
        last = out.splitlines()[2].split(",")
        assert float(last[4]) == pytest.approx(1e12 * math.log10(0.8), rel=1e-12)

    def test_parametric_walk_past_the_budget_exits_3(self, capsys, files):
        drifting = {
            "type": "product-state",
            "prefix": [],
            "tail": {"kind": "parametric", "limit": [0.8, 0.6], "deviation": [0.1, 0.0],
                     "class": "geometric", "ratio": 0.5},
        }
        a = files("a.json", encode_state(QUIET))
        b = files("b.json", drifting)
        code, out, err = run(capsys, "overlap-sweep", a, b, "--cuts", "10,1000000000000")
        assert code == 3
        assert out == ""
        assert json.loads(err)["code"] == "dimension-budget-exceeded"

    def test_an_eventually_constant_document_is_read_in_runs(self, capsys, files):
        # the decoded tail is one vector before rank 1e8 and the limit after,
        # so 200 cuts up to 2e8 sites bracket a few sites, not 2e8
        recorded = {
            "type": "product-state",
            "prefix": [[0.6, 0.8]],
            "tail": {"kind": "parametric", "limit": [0.8, 0.6], "deviation": [0.2, -0.6],
                     "class": "eventually-constant", "rank": 10**8},
        }
        a = files("a.json", encode_state(QUIET))
        b = files("b.json", recorded)
        code, out, err = run(
            capsys, "overlap-sweep", a, b, "--max", "200000000", "--step", "1000000"
        )
        assert code == 0, err
        rows = out.splitlines()[1:]
        assert len(rows) == 200
        # one site at 0.6, then 1 before rank and 0.8 after it
        last = rows[-1].split(",")
        assert float(last[4]) == pytest.approx(math.log10(0.6) + 1e8 * math.log10(0.8), rel=1e-12)

    def test_a_cut_range_past_the_budget_exits_3_before_it_is_built(self, capsys, files):
        a = files("a.json", encode_state(QUIET))
        b = files("b.json", encode_state(KICKED))
        code, out, err = run(
            capsys, "overlap-sweep", a, b, "--max", "1000000000000", "--step", "1"
        )
        assert code == 3
        assert out == ""
        payload = json.loads(err)
        assert payload["code"] == "dimension-budget-exceeded"
        assert payload["context"]["cuts"] == 10**12


class TestExpectationSweep:
    def test_projector_decay(self, capsys, files):
        proj = q.FactoredOperator(
            (
                q.OperatorTerm(
                    1.0,
                    (),
                    q.ConstantOperatorTail(
                        q.FactorOperator(((1.0, 0.0), (0.0, 0.0)))
                    ),
                ),
            )
        )
        plus = q.make_product_state(
            (), q.ConstantTail(q.FactorVector((2**-0.5, 2**-0.5)))
        )
        op = files("op.json", encode_operator(proj))
        st = files("st.json", encode_state(plus))
        code, out, err = run(
            capsys, "expectation-sweep", op, st, "--cuts", "1,2,3", "--eps", "0.3"
        )
        assert code == 0
        rows = out.splitlines()[1:]
        for row in rows:
            n, re, *_ = row.split(",")
            assert float(re) == pytest.approx(0.5 ** int(n))
        assert summary_of(err)["first_below"] == 2


class TestDecohere:
    def model_file(self, files, eta=0.8):
        kicked = q.make_product_state(
            (), q.ConstantTail(q.FactorVector((eta, math.sqrt(1 - eta * eta))))
        )
        m = q.MeasurementModel((2**-0.5, 2**-0.5), (QUIET, kicked))
        return files("model.json", encode_model(m))

    def test_long_format_rows(self, capsys, files):
        path = self.model_file(files)
        code, out, _ = run(capsys, "decohere", path, "--cuts", "1,2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "truncation,i,j,re,im,modulus,log10_modulus"
        assert len(lines) == 3  # one outcome pair, two cuts
        n, i, j, re, im, mod, log10 = lines[1].split(",")
        assert (int(n), int(i), int(j)) == (1, 0, 1)
        assert float(mod) == pytest.approx(0.5 * 0.8)
        assert float(log10) == pytest.approx(math.log10(0.5 * 0.8))

    def test_horizon_summary(self, capsys, files):
        path = self.model_file(files, eta=0.9)
        code, _, err = run(
            capsys, "decohere", path, "--cuts", "1", "--eps", "1e-6"
        )
        assert code == 0
        assert summary_of(err)["horizon"] == 125

    def test_rows_match_the_truncated_density(self, capsys, files):
        # three branches with 100-site explicit prefixes: every row comes
        # from the one walk truncated_density makes, bit for bit
        rng = np.random.default_rng(11)
        branches = []
        for _ in range(3):
            rows = rng.normal(size=(101, 2)) + 1j * rng.normal(size=(101, 2))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            factors = [tuple(complex(c) for c in r) for r in rows]
            branches.append(
                q.make_product_state(factors[:100], q.ConstantTail(q.FactorVector(factors[100])))
            )
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        coeffs = tuple(complex(c) for c in amps / np.linalg.norm(amps))
        path = files("model.json", encode_model(q.MeasurementModel(coeffs, tuple(branches))))
        model = decode_model(loads(Path(path).read_text()))
        cuts = [1, 30, 64, 65, 99, 100, 101, 250]
        code, out, _ = run(capsys, "decohere", path, "--cuts", ",".join(map(str, cuts)))
        assert code == 0
        lines = out.splitlines()[1:]
        assert len(lines) == 3 * len(cuts)
        for line in lines:
            n, i, j, re, im = line.split(",")[:5]
            rho = q.truncated_density(model, int(n)).matrix
            assert re == repr(float(rho[int(i), int(j)].real))
            assert im == repr(float(rho[int(i), int(j)].imag))

    def test_pair_flag(self, capsys, files):
        path = self.model_file(files)
        code, out, _ = run(capsys, "decohere", path, "--cuts", "1", "--pair", "0,1")
        assert code == 0
        assert len(out.splitlines()) == 2
        code, _, err = run(capsys, "decohere", path, "--cuts", "1", "--pair", "0,2")
        assert code == 2


class TestSample:
    def test_deterministic_output(self, capsys, files):
        m = q.MeasurementModel((0.3, math.sqrt(0.91)), (QUIET, KICKED))
        path = files("model.json", encode_model(m))
        code, out1, err = run(capsys, "sample", path, "--count", "50", "--seed", "9")
        assert code == 0
        assert out1.splitlines()[0] == "outcome"
        assert len(out1.splitlines()) == 51
        s = summary_of(err)
        assert sum(s["outcome_counts"]) == 50
        assert s["probabilities"][0] == pytest.approx(0.09)
        _, out2, _ = run(capsys, "sample", path, "--count", "50", "--seed", "9")
        assert out1 == out2
        _, out3, _ = run(capsys, "sample", path, "--count", "50", "--seed", "10")
        assert out1 != out3

    def test_negative_count(self, capsys, files):
        m = q.MeasurementModel((2**-0.5, 2**-0.5), (QUIET, KICKED))
        path = files("model.json", encode_model(m))
        code, _, err = run(capsys, "sample", path, "--count", "-1")
        assert code == 2


class TestSpinSweep:
    def test_a_site_range_past_the_budget_exits_3_before_it_is_built(self, capsys):
        code, out, err = run(
            capsys, "spin-sweep", "--xi", "1/2", "--n-max", "1000000000000", "--step", "1"
        )
        assert code == 3
        assert out == ""
        assert json.loads(err)["code"] == "dimension-budget-exceeded"

    def test_auto_step_follows_the_period(self, capsys):
        code, out, err = run(capsys, "spin-sweep", "--xi", "2/3", "--n-max", "12")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n_sites,re,im,modulus,probability,log10_probability"
        sites = [int(r.split(",")[0]) for r in lines[1:]]
        assert sites == [3, 6, 9, 12]
        for row in lines[1:]:
            n, re, im, mod, prob, log10p = row.split(",")
            assert float(prob) == pytest.approx(2.0 ** -(2 * int(n) // 3))
            assert float(mod) ** 2 == pytest.approx(float(prob))
            assert float(log10p) == pytest.approx(math.log10(float(prob)))

    def test_summary_reports_sector(self, capsys):
        code, _, err = run(
            capsys, "spin-sweep", "--xi", "1", "--n-max", "50", "--eps", "1e-6"
        )
        assert code == 0
        s = summary_of(err)
        assert s["xi"] == "1"
        assert s["sector"] == "DifferentSector"
        assert s["first_below"] == 40

    def test_misaligned_step_fails_cleanly(self, capsys):
        code, _, err = run(
            capsys, "spin-sweep", "--xi", "2/3", "--n-max", "10", "--step", "2"
        )
        assert code == 3
        assert json.loads(err)["code"] == "non-integral-fraction"

    def test_bad_fraction(self, capsys):
        code, _, err = run(capsys, "spin-sweep", "--xi", "a/b", "--n-max", "10")
        assert code == 2


class TestQndSim:
    def test_default_cascade_report(self, capsys):
        code, out, _ = run(capsys, "qnd-sim", "--eps", "1e-6")
        assert code == 0
        doc = json.loads(out)
        assert doc["type"] == "cascade-report"
        assert doc["total_records"] == 51010
        assert doc["log10_coherence"] == pytest.approx(-222.94975357464298)
        assert [s["count"] for s in doc["stages"]] == [10, 1000, 50000]
        # records needed before 0.5 * 0.99^N falls under 1e-6
        assert doc["horizon"] == 1306

    def test_custom_stages_and_determinism(self, capsys):
        argv = (
            "qnd-sim",
            "--stages",
            "burst:poisson:8,fanout:fixed:3",
            "--weights",
            "0.25,0.75",
            "--loss",
            "0.2",
            "--dark",
            "1.5",
            "--seed",
            "12",
        )
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["seed"] == 12
        assert doc["stages"][1]["count"] == 3 * doc["stages"][0]["count"]

    def test_stage_csv(self, capsys, tmp_path):
        target = tmp_path / "stages.csv"
        code, out, _ = run(capsys, "qnd-sim", "--stage-csv", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("stage,kind,parameter,count")
        assert lines[1].split(",")[0] == "fluorescence"

    def test_a_draw_past_the_generator_limit_exits_3(self, capsys):
        code, out, err = run(capsys, "qnd-sim", "--stages", "a:fixed:1e10,b:poisson:1e10")
        assert (code, out) == (3, "")
        payload = json.loads(err)
        assert payload["code"] == "dimension-budget-exceeded"
        assert payload["context"]["stage"] == "b"

    def test_counts_past_the_float_range_report_minus_inf(self, capsys):
        code, out, err = run(capsys, "qnd-sim", "--stages", "a:fixed:1e200,b:fixed:1e200")
        assert (code, err) == (0, "")
        doc = loads(out)
        assert doc["total_records"] == int(1e200) + int(1e200) ** 2
        assert (doc["log10_coherence"], doc["coherence"]) == ("-inf", 0.0)
        assert doc["stages"][0]["log10_coherence"] != "-inf"

    def test_bad_stage_syntax(self, capsys):
        code, _, err = run(capsys, "qnd-sim", "--stages", "broken")
        assert code == 2
        assert json.loads(err)["code"] == "usage-error"


def _eps_argv(files, command):
    """argv for ``command`` without its --eps and --out options."""
    quiet = files("quiet.json", encode_state(QUIET))
    model = q.MeasurementModel((2**-0.5, 2**-0.5), (QUIET, KICKED))
    eye = q.FactoredOperator((q.OperatorTerm(1.0, (), q.IdentityTail(2)),))
    return {
        "overlap-sweep": [quiet, files("kicked.json", encode_state(KICKED)), "--max", "3"],
        "expectation-sweep": [files("op.json", encode_operator(eye)), quiet, "--max", "3"],
        "decohere": [files("model.json", encode_model(model)), "--cuts", "1,2"],
        "spin-sweep": ["--xi", "1/2", "--n-max", "4"],
        "qnd-sim": [],
    }[command]


@pytest.mark.parametrize("eps", ["0", "-1"])
@pytest.mark.parametrize(
    "command", ["overlap-sweep", "expectation-sweep", "decohere", "spin-sweep", "qnd-sim"]
)
def test_an_invalid_eps_is_refused_before_anything_is_written(
    capsys, files, tmp_path, command, eps
):
    target = tmp_path / "artifact.out"
    argv = [command, *_eps_argv(files, command), "--eps", eps, "--out", str(target)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert not target.exists()
    payload = json.loads(err)
    assert payload["code"] == "usage-error"
    assert payload["message"] == "--eps must be positive"
    # without --out the artifact would go to stdout; it stays empty too
    code, out, _ = run(capsys, *argv[:-2])
    assert (code, out) == (2, "")


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What an installer's console-script wrapper does, run in a child process:
# load the declared entry point, present argv as the installed command would
# see it, and exit with main()'s return code.
ENTRY_POINT_WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
name, value, *argv = sys.argv[1:]
main = EntryPoint(name=name, value=value, group="console_scripts").load()
sys.argv = [name, *argv]
sys.exit(main())
"""


def declared_script(name="qsectors"):
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert name in scripts, f"pyproject.toml declares no [project.scripts] {name}"
    return scripts[name]


def run_child(*cmd):
    return subprocess.run(
        list(cmd), capture_output=True, text=True, timeout=60, env=child_env()
    )


def run_entry_point(*argv):
    return run_child(
        sys.executable, "-c", ENTRY_POINT_WRAPPER, "qsectors", declared_script(), *argv
    )


def run_module(*argv):
    return run_child(sys.executable, "-m", "qsectors.cli", *argv)


def check_installed_script(argv, module_run=None):
    """Where a ``qsectors`` executable is installed on PATH, it must match ``-m``."""
    executable = shutil.which("qsectors")
    if executable is None:
        return
    if module_run is None:
        module_run = run_module(*argv)
    installed = run_child(executable, *argv)
    assert installed.returncode == module_run.returncode, installed.stderr
    assert installed.stdout == module_run.stdout


class TestConsoleScript:
    """The declared ``[project.scripts]`` entry point runs the CLI.

    The entry point is loaded from ``pyproject.toml`` the way an installer's
    wrapper loads it, so no install is needed; an installed ``qsectors`` on
    PATH is checked as well.
    """

    def test_installed_entry_point(self):
        argv = ("spin-sweep", "--xi", "1/2", "--n-max", "8")
        proc = run_entry_point(*argv)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "n_sites,re,im,modulus,probability,log10_probability"
        assert len(lines) == 5
        check_installed_script(argv)

    def test_module_invocation_matches(self):
        a = run_entry_point("qnd-sim")
        b = run_module("qnd-sim")
        assert a.returncode == b.returncode == 0, a.stderr + b.stderr
        assert a.stdout == b.stdout
        check_installed_script(("qnd-sim",), b)


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_malformed_documents_exit_with_a_json_error(capsys, files, case):
    cls, doc = MALFORMED_DOCUMENTS[case]
    bad, good = files("bad.json", doc), files("good.json", CANONICAL_DOCUMENTS[cls])
    for argv in (("sector-test", bad, good), ("overlap-sweep", bad, good, "--max", "8")):
        code, _, err = run(capsys, *argv)
        assert code in (0, 2, 3)
        if code:
            assert "code" in json.loads(err)


@pytest.mark.parametrize("case", sorted(MALFORMED_OPERATORS))
def test_malformed_operators_exit_with_a_json_error(capsys, files, case):
    op, state = files("op.json", MALFORMED_OPERATORS[case]), files("s.json", encode_state(QUIET))
    code, _, err = run(capsys, "expectation-sweep", op, state, "--max", "8")
    assert code in (0, 2, 3)
    if code:
        assert "code" in json.loads(err)


HUGE = 10**400  # a JSON integer literal with 401 digits
HUGE_DOCUMENTS = {
    "state": (
        ("sector-test", "DOC", "STATE"),
        {"prefix": [[HUGE, 0.0]], "tail": {"kind": "constant", "vector": [1.0, 0.0]}},
        "prefix[0]",
    ),
    "model": (
        ("sample", "DOC", "--count", "3"),
        {**encode_model(q.MeasurementModel((0.6, 0.8), (QUIET, KICKED))), "coefficients": [HUGE]},
        "coefficients",
    ),
    "sequence": (
        ("product-classify", "DOC"), {"tail": {"kind": "p-series-one-plus", "p": HUGE}}, "tail.p"
    ),
    "operator": (
        ("expectation-sweep", "DOC", "STATE", "--max", "4"),
        MALFORMED_OPERATORS["tail-entry-9"],
        "terms[1].tail.entries",
    ),
}


@pytest.mark.parametrize("case", sorted(HUGE_DOCUMENTS))
def test_integers_past_the_float_range_exit_2_naming_the_field(capsys, files, case):
    argv, document, field = HUGE_DOCUMENTS[case]
    documents = {"DOC": files("doc.json", document), "STATE": files("s.json", encode_state(QUIET))}
    code, out, err = run(capsys, *(documents.get(a, a) for a in argv))
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["code"] == "usage-error"
    assert payload["message"] == f"{field} holds an integer outside the float range"


# Arguments past a budget or the float range, or outside what a subcommand
# accepts: each subcommand either answers (exit 0) or refuses with one JSON
# error line of the given code (exit 2 or 3) before it allocates anything at
# the oversized value or writes any output.  Documents are named by
# placeholder.
BUDGET = "dimension-budget-exceeded"
OVERSIZED_ARGUMENTS = {
    "qnd-sim-two-huge-stages": (0, None, ("qnd-sim", "--stages", "a:fixed:1e200,b:fixed:1e200")),
    "qnd-sim-one-huge-stage": (0, None, ("qnd-sim", "--stages", "a:fixed:1e300")),
    "overlap-sweep-past-the-float-range": (
        0, None, ("overlap-sweep", "STATE", "STATE", "--max", str(10**400), "--step", str(10**399))
    ),
    "sample-count": (3, BUDGET, ("sample", "MODEL", "--count", str(WALK_BUDGET + 1))),
    "overlap-sweep-max": (
        3, BUDGET, ("overlap-sweep", "STATE", "STATE", "--max", str(WALK_BUDGET + 1))
    ),
    "decohere-max": (3, BUDGET, ("decohere", "MODEL", "--max", str(WALK_BUDGET + 1))),
    "product-classify-budget": (
        3, BUDGET, ("product-classify", "SEQUENCE", "--budget", str(2**21 + 1))
    ),
    "spin-sweep-n-max": (
        3, BUDGET, ("spin-sweep", "--xi", "1/2", "--n-max", str(WALK_BUDGET + 1), "--step", "1")
    ),
    "sample-negative-seed": (
        2, "usage-error", ("sample", "MODEL", "--count", "3", "--seed", "-1")
    ),
    "qnd-sim-negative-seed": (
        3, "precondition-violated", ("qnd-sim", "--stages", "a:poisson:3", "--seed", "-1")
    ),
    # an all-fixed cascade draws nothing, so any seed is accepted
    "qnd-sim-fixed-negative-seed": (0, None, ("qnd-sim", "--stages", "a:fixed:3", "--seed", "-1")),
    "decohere-infinite-eps": (
        3, "precondition-violated", ("decohere", "MODEL", "--max", "3", "--eps", "inf")
    ),
    "qnd-sim-nan-weights": (
        3, "invalid-amplitude", ("qnd-sim", "--weights", "nan,nan", "--stages", "a:fixed:0")
    ),
    "overlap-sweep-unwritable-out": (
        2, "io-error", ("overlap-sweep", "STATE", "STATE", "--cuts", "1,2", "--out", "UNWRITABLE")
    ),
    "overlap-sweep-non-integer-cuts": (
        2, "usage-error", ("overlap-sweep", "STATE", "STATE", "--cuts", "1,x")
    ),
    "overlap-sweep-step-0": (
        2, "usage-error", ("overlap-sweep", "STATE", "STATE", "--max", "5", "--step", "0")
    ),
    "overlap-sweep-empty-cuts": (2, "usage-error", ("overlap-sweep", "STATE", "STATE", "--cuts", "")),
    "overlap-sweep-no-count": (2, "usage-error", ("overlap-sweep", "STATE", "STATE", "--max", "0")),
    "overlap-sweep-decreasing-cuts": (
        2, "usage-error", ("overlap-sweep", "STATE", "STATE", "--cuts", "3,2")
    ),
    "decohere-one-index-pair": (2, "usage-error", ("decohere", "MODEL", "--max", "3", "--pair", "0")),
    "spin-sweep-step-0": (
        2, "usage-error", ("spin-sweep", "--xi", "1/2", "--n-max", "4", "--step", "0")
    ),
    "spin-sweep-no-count": (
        2, "usage-error", ("spin-sweep", "--xi", "1/2", "--n-max", "1", "--step", "2")
    ),
    "qnd-sim-stage-not-a-number": (2, "usage-error", ("qnd-sim", "--stages", "a:fixed:x")),
    "qnd-sim-weights-not-numbers": (
        2, "usage-error", ("qnd-sim", "--weights", "a,b", "--stages", "a:fixed:0")
    ),
    "qnd-sim-one-weight": (2, "usage-error", ("qnd-sim", "--weights", "1", "--stages", "a:fixed:0")),
    "qnd-sim-negative-weight": (
        2, "usage-error", ("qnd-sim", "--weights", "1.5,-0.5", "--stages", "a:fixed:0")
    ),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED_ARGUMENTS))
def test_oversized_arguments_answer_or_refuse_up_front(capsys, files, tmp_path, case):
    expected, error_code, argv = OVERSIZED_ARGUMENTS[case]
    documents = {
        "UNWRITABLE": str(tmp_path / "no-such-directory" / "out.csv"),
        "MODEL": files("model.json", encode_model(q.MeasurementModel((0.6, 0.8), (QUIET, KICKED)))),
        "STATE": files("state.json", encode_state(QUIET)),
        "SEQUENCE": files(
            "seq.json", {"tail": {"kind": "phase-drift", "coefficient": 1.0, "p": 0.5}}
        ),
    }
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *(documents.get(a, a) for a in argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == expected
    assert "Traceback" not in err
    if code:
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["code"] == error_code
        # a list or array of WALK_BUDGET entries alone would take 16 MB
        assert peak < 4 * 2**20
