"""Self-tests of the benchmark: every correctness check can fail, and the
tracer counts what it claims to.

    python3 -m pytest -q benchmarks/test_bench.py
"""

import dataclasses
import json
import math
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from supent import bounds, harness, optimize  # noqa: E402

PERTURBATION = 1e-6
ALPHA, BETA = 0.6, 0.8j


def _certify(psi, phi):
    report = bounds.certify(psi, phi, ALPHA, BETA)
    ref = checks.reference_exact(psi.coeffs, phi.coeffs, ALPHA, BETA)
    return report, ref


@pytest.fixture(scope="module")
def haar_case():
    return _certify(harness.haar_random_state(4, 4, 11), harness.haar_random_state(4, 4, 12))


@pytest.fixture(scope="module")
def one_sided_case():
    return _certify(*harness.generate_one_sided_pair(2, 2, 4, 13))


def test_certify_checks_pass_on_real_reports(haar_case, one_sided_case):
    assert checks.check_certify(*haar_case, one_sided=False) == []
    assert checks.check_certify(*one_sided_case, one_sided=True) == []


@pytest.mark.parametrize(
    "perturb",
    [
        lambda r: {"sane": False},
        lambda r: {"exact_e": r.exact_e + PERTURBATION},
        lambda r: {"exact_e": r.exact_e - PERTURBATION},
        lambda r: {"theorem3_upper": r.lps_upper + PERTURBATION},
        lambda r: {"theorem3_refined_upper": r.theorem3_upper + PERTURBATION},
    ],
    ids=["sane", "exact_up", "exact_down", "t3_above_lps", "refined_above_plain"],
)
def test_each_certify_check_fires(haar_case, perturb):
    report, ref = haar_case
    assert checks.check_certify(dataclasses.replace(report, **perturb(report)), ref, one_sided=False)


def test_one_sided_check_fires(one_sided_case):
    report, ref = one_sided_case
    shifted = dataclasses.replace(report, exact_one_sided=report.exact_one_sided + PERTURBATION)
    assert checks.check_certify(shifted, ref, one_sided=True)
    missing = dataclasses.replace(report, exact_one_sided=None)
    assert checks.check_certify(missing, ref, one_sided=True)


@pytest.mark.parametrize("family", ["example3", "example4"])
def test_sweep_checks(family):
    record = harness.dimension_sweep([257], family)[0]
    assert checks.check_sweep(record, family) == []
    assert checks.check_sweep(dataclasses.replace(record, exact_e=record.exact_e + PERTURBATION), family)
    assert checks.check_sweep(dataclasses.replace(record, t3=record.lps + PERTURBATION), family)


def test_audit_checks():
    wl = workloads.AuditSmall(5)
    op = wl.cycle(0)[0]
    code, stdout = wl.run(op)
    failures, gap = wl.evaluate(op, (code, stdout))
    assert failures == [] and math.isfinite(gap)
    summary = json.loads(stdout)
    assert checks.check_audit(1, summary)
    assert checks.check_audit(0, dict(summary, violations=1))


class _Broken:
    """A workload whose op raises, or whose output cannot be read."""

    def __init__(self, raise_in_run):
        self.raise_in_run = raise_in_run

    def run(self, op):
        if self.raise_in_run:
            raise RuntimeError("op failed")
        return "not json"

    @staticmethod
    def evaluate(op, result):
        return workloads.AuditSmall.evaluate(op, (0, result))


@pytest.mark.parametrize("raise_in_run", [True, False])
def test_failed_ops_are_counted(raise_in_run):
    sample = run.run_one(_Broken(raise_in_run), workloads.Op("x", 1, ()))
    assert sample.failures and sample.gap is None


def _inputs(ops):
    return [
        tuple(a.coeffs.tobytes() if hasattr(a, "coeffs") else a for a in op.args)
        for op in ops
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_cycles_have_fixed_mix_and_fresh_inputs(name):
    cls = workloads.WORKLOADS[name]
    wl = cls(3)
    first, second = wl.cycle(0), wl.cycle(1)
    # The sweep's LARGE record alternates family by cycle: the mix repeats
    # every two cycles.
    assert Counter(op.label for op in first + second) == Counter(
        op.label for op in wl.cycle(2) + wl.cycle(3)
    )
    assert _inputs(cls(3).cycle(0)) == _inputs(first)
    if name != "sweep-large-d":  # the sweep's inputs are (d, family) only
        assert not set(_inputs(first)) & set(_inputs(second))


def test_certify_dense_ops_pass_their_checks():
    wl = workloads.CertifyDense(2)
    ops = [op for op in wl.cycle(0) if op.label in ("haar-32", "one_sided-32")][:4]
    for op in ops:
        assert wl.evaluate(op, wl.run(op))[0] == []


def test_tracer_restores_originals_and_self_times_add_up():
    certify, eigvalsh = bounds.certify, tracing.np.linalg.eigvalsh
    tracer = tracing.Tracer()
    psi, phi = harness.haar_random_state(4, 4, 1), harness.haar_random_state(4, 4, 2)
    with tracer.installed():
        assert bounds.certify is not certify
        tracer.span("bench.op", lambda: bounds.certify(psi, phi, ALPHA, BETA))()
    assert bounds.certify is certify and tracing.np.linalg.eigvalsh is eigvalsh
    snap = tracer.take()
    assert sum(snap["self"].values()) == pytest.approx(snap["total"]["bench.op"], rel=1e-9)
    metrics = tracing.layer_metrics(snap)
    assert metrics["bounds.certify.calls"] == 1
    assert metrics["qmath.eigvalsh.calls"] > 0
    assert metrics["states.classify_orthogonality.calls"] >= 1
    # Every kept span's parent is an earlier kept span.
    assert all(-1 <= parent < i for i, (_, _, _, parent, _) in enumerate(tracer.spans))


def test_tracer_counts_objective_points_once_per_search():
    calls = []

    def f(x):
        calls.append(x)
        return (x - 0.3) ** 2

    tracer = tracing.Tracer()
    with tracer.installed():
        optimize.minimize_scalar(f, 0.0, 1.0)
        optimize.maximize_scalar(lambda x: -f(x), 0.0, 1.0)
    counts = tracer.take()["counts"]
    assert counts["optimize.searches"] == 2
    assert counts["optimize.evals"] == len(calls)
    assert counts["optimize.converged"] == 2


def test_tracer_counts_binary_entropy_where_it_is_looked_up():
    tracer = tracing.Tracer()
    with tracer.installed():
        bounds.lps_upper_value(1.0, 1.0, 0.3, 1.0)  # bounds.binary_entropy, imported by value
    assert tracer.take()["counts"]["qmath.entropy.elements"] == 2


def test_tail_has_ten_samples_beyond():
    xs = [float(i) for i in range(100)]
    value, pct = run.tail(xs)
    assert sum(x > value for x in xs) == 10 and pct == pytest.approx(90.0)


def test_host_scaling_divides_by_the_slowdown_around_each_op():
    ref = 0.002
    latencies = [1.0, 2.0, 3.0]
    steady = [ref] * (len(latencies) + run.PROBE_WINDOW // 2)
    assert run.host_scaled(latencies, steady, ref) == pytest.approx(latencies)
    # A host twice as slow throughout halves every time.
    slow = [2 * ref] * len(steady)
    assert run.host_scaled(latencies, slow, ref) == pytest.approx([0.5, 1.0, 1.5])
    # A slow spell after the last op raises the slowdown only of the ops
    # whose window holds it: the last two.
    spell = [ref, ref, ref, ref, 3 * ref]
    scaled = run.host_scaled(latencies, spell, ref)
    assert scaled == pytest.approx([1.0, 2.0 / 1.5, 3.0 / (5.0 / 3.0)])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_kernels_stay_outside_the_trace(name):
    tracer = tracing.Tracer()
    with tracer.installed():
        workloads.WORKLOADS[name].reference()
    snap = tracer.take()
    assert not snap["counts"] and not snap["total"]
