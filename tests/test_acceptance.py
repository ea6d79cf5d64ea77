"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``).  Reference
values are literal closed forms derived from the examples' definitions, not
values read back from ``harness``.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from helpers import (
    entanglement_entropy,
    family_gamma_probs,
    family_state_probs,
    pin_environments,
    random_state,
    random_sphere_pair,
)
from supent import bounds, harness, qmath, states
from supent.bounds import SuperpositionProblem
from supent.qmath import binary_entropy

H2_150 = binary_entropy(1.0 / 50.0)
H2_37 = binary_entropy(3.0 / 7.0)
H2_2528 = binary_entropy(25.0 / 28.0)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_01_example1_reproduction():
    psi, phi = harness.bell_block_pair()
    worst = 0.0
    for alpha in (0.3, 0.6, 1.0 / math.sqrt(2.0)):
        beta = math.sqrt(1.0 - alpha * alpha)
        p = SuperpositionProblem.from_states(psi, phi, alpha, beta)
        exact = entanglement_entropy(p.gamma)
        formula = bounds.certify(psi, phi, alpha, beta).exact_one_sided
        s_a, s_b = states.PairStack([(p.psi, p.phi)]).entropies(0, p.alpha_sq)
        worst = max(
            worst,
            abs(exact - 1.0),
            abs(formula - 1.0),
            abs(s_a - 1.0),
            abs(s_b - (1.0 + binary_entropy(alpha * alpha))),
        )
    ok = worst <= 1e-9
    _report("criterion 1 (example 1 reproduction)", ok, f"worst deviation {worst:.2e}")
    assert ok


def test_criterion_02_example2_reproduction():
    psi, phi = harness.overlapping_triple_pair()
    s = 1.0 / math.sqrt(2.0)
    p = SuperpositionProblem.from_states(psi, phi, s, s)
    exact = entanglement_entropy(p.gamma)
    s_a, s_b = states.PairStack([(p.psi, p.phi)]).entropies(0, p.alpha_sq)
    report = bounds.certify(psi, phi, s, s)
    lps, t2 = report.lps_upper, report.theorem2_upper
    worst = max(
        abs(p.e_psi - 1.5),
        abs(p.e_phi - 1.5),
        abs(exact - math.log2(3.0)),
        abs(p.gamma_norm_sq - 1.5),
        abs(s_a - 1.5),
        abs(s_b - 2.0),
        abs(lps - 10.0 / 3.0),
        abs(t2 - 8.0 / 3.0),
    )
    dominate = (lps >= exact) and (t2 >= exact)
    rows = harness.run_examples()
    noted = [
        r
        for r in rows
        if r.case == "E2" and "norm-divided" in r.quantity and "discrepancy" in r.note
    ]
    ok = worst <= 1e-9 and dominate and len(noted) == 2 and all(r.passed for r in noted)
    _report(
        "criterion 2 (example 2 reproduction)",
        ok,
        f"worst deviation {worst:.2e}; printed-value discrepancy rows: {len(noted)}",
    )
    assert ok


def _example3_scalars(d):
    e_state = qmath.shannon_entropy(family_state_probs(d))
    gp, n2 = family_gamma_probs(d, 0.6, -0.8)
    exact = qmath.shannon_entropy(gp / n2)
    return e_state, exact, n2


def test_criterion_03_example3_values_and_divergence():
    d = 2**16 + 1
    e_state, exact, n2 = _example3_scalars(d)
    expected_exact = (49.0 / 50.0) * 16.0 + H2_150
    t3, t3_star = bounds.minimize_f_scalar(e_state, e_state, 0.36, n2)
    sweep = harness.dimension_sweep([2**8 + 1, 2**12 + 1, 2**16 + 1], "example3")
    gap_lps = [r.gap_lps for r in sweep]
    gap_t3 = [r.gap_t3 for r in sweep]
    spread = max(gap_t3) - min(gap_t3)
    ok = (
        abs(exact - expected_exact) <= 1e-9
        and abs(t3_star - 3.0 / 7.0) <= 0.01
        and all(b > a for a, b in zip(gap_lps, gap_lps[1:]))
        and spread < 0.05
    )
    _report(
        "criterion 3 (example 3: exact value, t*, divergence)",
        ok,
        f"|E - closed form| = {abs(exact - expected_exact):.2e}, "
        f"|t* - 3/7| = {abs(t3_star - 3.0/7.0):.4f}, "
        f"gap_lps = {[f'{g:.4f}' for g in gap_lps]}, gap_t3 spread = {spread:.4f}",
    )
    assert ok


def test_criterion_03_example3_f37_reference_gap():
    d = 2**16 + 1
    e_state, exact, n2 = _example3_scalars(d)
    f37 = bounds.f_upper_value(3.0 / 7.0, e_state, e_state, 0.36, n2)
    gap = f37 - exact
    # E(psi) = E(phi) = 1 + log2(d-1)/2 and N^2 = 1, and the prefactor at
    # t = 3/7 is a/t + (1-a)/(1-t) = 21/25 + 28/25 = 49/25, so
    # f(3/7) = (49/25)(1 + log2(d-1)/2 + h2(3/7)).  With
    # E(gamma) = (49/50) log2(d-1) + h2(1/50) the log2(d-1) terms cancel and
    # the gap is the d-independent constant below.
    reference = (49.0 / 25.0) * (1.0 + H2_37) - H2_150
    ok = abs(gap - reference) <= 1e-6
    _report(
        "criterion 3 (example 3: f(3/7) - E reference gap)",
        ok,
        f"computed gap {gap:.7f} vs reference {reference:.7f}",
    )
    assert ok, f"f(3/7) - E(gamma) = {gap:.7f}, reference value {reference:.7f}"


def test_criterion_04_example4_gap_and_value():
    d = 2**16 + 1
    e_state = qmath.shannon_entropy(family_state_probs(d))
    gp, n2 = family_gamma_probs(d, 0.6, 0.8)
    exact = qmath.shannon_entropy(gp / n2)
    l1_ref = bounds.lower_value(25.0 / 28.0, e_state, e_state, 0.36 / n2, 0.64 / n2, "L1")
    gap = exact - l1_ref
    closed = H2_150 - 1.0 / 25.0 + (28.0 / 25.0) * H2_2528
    raw, _, _ = bounds.maximize_lower_scalar(e_state, e_state, 0.36 / n2, 0.64 / n2)
    value = max(0.0, raw)
    ok = abs(gap - closed) <= 1e-6 and round(gap, 2) == 0.65 and value >= l1_ref
    _report(
        "criterion 4 (example 4: gap at t = 25/28)",
        ok,
        f"gap {gap:.7f} vs closed form {closed:.7f}; optimized value {value:.3g} >= L1 {l1_ref:.4f}",
    )
    assert ok


def test_criterion_04_example4_t_star_reference():
    # The location 25/28 maximizes the coefficient of E in L1,
    # 0.64(1-t)/(1-0.64t) - (1-t)/t, and holds only as E grows: the interior
    # maximizer sits about 0.617/E above it.  At d = 2^16+1 (E = 9),
    # L1(25/28) = 0.04*9 - (28/25) h2(25/28) < 0 while L1 -> 0 from below as
    # t -> 1, so the maximizer there is the right edge of the search window.
    # The location is therefore checked on the same family at larger d,
    # through the scalar layer: E = 1 + log2(d-1)/2, N^2 = 0.98 + 0.02 = 1,
    # a' = 0.36, b' = 0.64.
    offsets = []
    details = []
    ok = True
    for log_d1 in (256, 1024):
        e_state = 1.0 + log_d1 / 2.0
        raw, t_star, branch = bounds.maximize_lower_scalar(e_state, e_state, 0.36, 0.64)
        offset = abs(t_star - 25.0 / 28.0)
        offsets.append(offset)
        details.append(f"log2(d-1) = {log_d1}: t* = {t_star:.6f} ({branch}, raw {raw:.4g})")
        ok = ok and offset <= 0.01 and branch == "L1" and raw > 0.0
    ok = ok and offsets[1] < offsets[0]
    _report(
        "criterion 4 (example 4: maximizer location)",
        ok,
        "; ".join(details) + f" vs reference 25/28 = {25/28:.6f}",
    )
    assert ok, "; ".join(details) + f"; expected within 0.01 of 25/28 = {25/28:.6f}"


@pytest.mark.kernel_pinned
def test_criterion_05_ordering_audit_1000_trials():
    summary = harness.random_audit(1000, 6, seed=harness.DEFAULT_SEED)
    ok = (
        summary.violations == 0
        and summary.order_violations_t2 == 0
        and summary.order_violations_t3 == 0
    )
    _report(
        "criterion 5 (1000-trial ordering audit)",
        ok,
        f"violations {summary.violations}, t2-order {summary.order_violations_t2}, "
        f"t3-order {summary.order_violations_t3}, skipped {summary.skipped_destructive}, "
        f"min margins (upper {summary.min_upper_margin:.3e}, lower {summary.min_lower_margin:.3e})",
    )
    assert ok
    # the summary's bits, recorded before the audit's draws and searches
    # were batched (under helpers.RECORDED_ENVIRONMENT); JSON writes each
    # float as its repr, which keeps every bit
    digest = hashlib.sha256(json.dumps(dataclasses.asdict(summary)).encode()).hexdigest()
    assert digest == "5d7c1aaaf9ce2690064a61a8f1a2b39afaf6d511261c0c6fb33fed2c6a637e29", pin_environments()


def test_criterion_06_one_sided_exactness_100_draws():
    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(100):
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(1, 4))
        dim_a = max(d1, d2) + int(rng.integers(0, 3))
        psi, phi = harness.generate_one_sided_pair(d1, d2, dim_a, seed=trial)
        alpha, beta = random_sphere_pair(rng)
        p = SuperpositionProblem.from_states(psi, phi, alpha, beta)
        formula = bounds.certify(psi, phi, alpha, beta).exact_one_sided
        worst = max(worst, abs(formula - entanglement_entropy(p.gamma)))
    ok = worst <= 1e-9
    _report("criterion 6 (exact formula on 100 one-sided draws)", ok, f"worst |diff| {worst:.2e}")
    assert ok


def test_criterion_07_entropy_route_agreement_200_states():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(200):
        da, db = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        s = random_state(rng, da, db)
        via_svd = entanglement_entropy(s)
        via_a = qmath.shannon_entropy(np.linalg.eigvalsh(states.reduced_density(s, "A")))
        via_b = qmath.shannon_entropy(np.linalg.eigvalsh(states.reduced_density(s, "B")))
        worst = max(worst, abs(via_svd - via_a), abs(via_svd - via_b), abs(via_a - via_b))
    ok = worst <= 1e-10
    _report("criterion 7 (three entropy routes on 200 states)", ok, f"worst pairwise |diff| {worst:.2e}")
    assert ok


def test_criterion_08_f_at_alpha_sq_equals_lps_100_problems():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        da, db = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        psi = random_state(rng, da, db)
        phi = random_state(rng, da, db)
        alpha, beta = random_sphere_pair(rng)
        p = SuperpositionProblem.from_states(psi, phi, alpha, beta)
        args = (p.e_psi, p.e_phi, p.alpha_sq, p.gamma_norm_sq)
        worst = max(
            worst, abs(bounds.f_upper_value(p.alpha_sq, *args) - bounds.lps_upper_value(*args))
        )
    ok = worst <= 1e-12
    _report("criterion 8 (f(|alpha|^2) = LPS on 100 problems)", ok, f"worst |diff| {worst:.2e}")
    assert ok


def test_criterion_09_sandwich_and_araki_lieb_500_draws():
    rng = np.random.default_rng(909)
    worst_slack = math.inf
    for _ in range(500):
        da, db = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        psi = random_state(rng, da, db)
        phi = random_state(rng, da, db)
        t = float(rng.uniform(0.02, 0.98))
        s_ab = states.mixture_entropy(t, abs(states.inner_product(psi, phi)) ** 2)
        s_a, s_b = states.PairStack([(psi, phi)]).entropies(0, t)
        excess = s_a - t * entanglement_entropy(psi) - (1.0 - t) * entanglement_entropy(phi)
        worst_slack = min(
            worst_slack,
            excess,
            binary_entropy(t) - excess,
            s_ab - abs(s_a - s_b),
        )
    ok = worst_slack >= -1e-9
    _report(
        "criterion 9 (concavity sandwich + entropy triangle on 500 draws)",
        ok,
        f"worst slack {worst_slack:.2e}",
    )
    assert ok


def test_criterion_10_subspace_bound_50_pairs():
    rng = np.random.default_rng(1010)
    grid_n = 8
    worst = -math.inf
    checked = 0
    for _ in range(50):
        psi = random_state(rng, 3, 3)
        phi = random_state(rng, 3, 3)
        if abs(states.inner_product(psi, phi)) > 1.0 - 1e-9:
            continue
        checked += 1
        value = bounds.subspace_lower(psi, phi, grid_n)
        exact_min = _exact_grid_minimum(psi, phi, grid_n)
        worst = max(worst, value - exact_min)
    ok = checked == 50 and worst <= 1e-6
    _report(
        "criterion 10 (subspace bound vs exact scan on 50 pairs)",
        ok,
        f"worst (bound - exact minimum) = {worst:.3e} over {checked} pairs",
    )
    assert ok


def _exact_grid_minimum(psi, phi, grid_n):
    psi = psi.normalized()
    phi = phi.normalized()
    best = math.inf
    for prob in np.linspace(0.0, 1.0, grid_n):
        for phase in np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False):
            alpha = math.sqrt(prob)
            beta = math.sqrt(1.0 - prob) * complex(math.cos(phase), math.sin(phase))
            gamma = states.superpose(alpha, psi, beta, phi)
            if states.norm_squared(gamma) <= 1e-12:
                continue
            best = min(best, entanglement_entropy(gamma))
    return best
