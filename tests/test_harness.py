import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from helpers import (
    diagonal_family_states,
    entanglement_entropy,
    family_gamma_probs,
    family_state_probs,
    patch_reports,
    serialize_state,
    trace_overlaps,
)
from supent import bounds, harness, qmath, states
from supent.errors import DimError, DomainError, ParseError
from supent.harness import (
    AuditSummary,
    bell_block_pair,
    dimension_sweep,
    generate_one_sided_pair,
    haar_random_state,
    parse_state_file,
    random_audit,
    run_examples,
    sweep_csv,
    SWEEP_COLUMNS,
)
from supent.rng import Xoshiro256StarStar
from supent.states import BipartiteState


# -- state files -----------------------------------------------------------------


def test_parse_bell_document():
    text = json.dumps(
        {
            "dim_a": 2,
            "dim_b": 2,
            "entries": [[0, 0, 2**-0.5, 0.0], [1, 1, 2**-0.5, 0.0]],
        }
    )
    s = parse_state_file(text)
    assert states.norm_squared(s) == pytest.approx(1.0, abs=1e-12)


def test_parse_triple_document():
    text = json.dumps(
        {
            "dim_a": 3,
            "dim_b": 4,
            "entries": [[0, 0, math.sqrt(0.5), 0.0], [1, 1, 0.5, 0.0], [2, 2, 0.5, 0.0]],
            "label": "triple",
        }
    )
    s = parse_state_file(text)
    assert entanglement_entropy(s) == pytest.approx(1.5, abs=1e-12)


def test_parse_rejects_duplicates():
    text = json.dumps(
        {"dim_a": 2, "dim_b": 2, "entries": [[0, 0, 1.0, 0.0], [0, 0, 0.5, 0.0]]}
    )
    with pytest.raises(ParseError, match="duplicate"):
        parse_state_file(text)


def test_parse_rejects_out_of_range_indices():
    text = json.dumps({"dim_a": 2, "dim_b": 2, "entries": [[0, 5, 1.0, 0.0]]})
    with pytest.raises(ParseError, match="outside"):
        parse_state_file(text)


def test_parse_reports_line_context():
    with pytest.raises(ParseError, match="line"):
        parse_state_file("{\n  bad json\n}")


def test_parse_rejects_bad_fields():
    with pytest.raises(ParseError, match="dim_a"):
        parse_state_file(json.dumps({"dim_a": 0, "dim_b": 2, "entries": []}))
    with pytest.raises(ParseError, match="entries"):
        parse_state_file(json.dumps({"dim_a": 2, "dim_b": 2, "entries": "nope"}))
    with pytest.raises(ParseError, match="entry 0"):
        parse_state_file(json.dumps({"dim_a": 2, "dim_b": 2, "entries": [[0, 0, 1.0]]}))
    with pytest.raises(ParseError, match="top-level value must be an object"):
        parse_state_file(json.dumps([{"dim_a": 2, "dim_b": 2, "entries": []}]))
    with pytest.raises(ParseError, match="field 'label' must be a string"):
        parse_state_file(json.dumps({"dim_a": 2, "dim_b": 2, "entries": [], "label": 7}))
    with pytest.raises(ParseError, match="entry 0: indices must be integers"):
        parse_state_file(json.dumps({"dim_a": 2, "dim_b": 2, "entries": [[0, 1.0, 1.0, 0.0]]}))
    # a bool is an int to Python, but no amplitude: [0, 0, true, false] is not 1
    for entry in ([0, 0, True, 0.0], [0, 0, 1.0, False]):
        with pytest.raises(ParseError, match="entry 1: amplitudes"):
            parse_state_file(json.dumps({"dim_a": 2, "dim_b": 2, "entries": [[1, 1, 1, 0], entry]}))


def test_roundtrip_is_bit_exact():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    g[1, 2] = 0.0
    original = BipartiteState(g)
    rebuilt = parse_state_file(serialize_state(original, label="roundtrip"))
    assert np.array_equal(original.coeffs, rebuilt.coeffs)


# -- random ensembles ---------------------------------------------------------------


def test_haar_state_deterministic_under_seed():
    a = haar_random_state(4, 5, seed=123)
    b = haar_random_state(4, 5, seed=123)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert states.norm_squared(a) == pytest.approx(1.0, abs=1e-12)


def test_haar_state_product_when_one_dimensional():
    s = haar_random_state(1, 6, seed=5)
    assert entanglement_entropy(s) == pytest.approx(0.0, abs=1e-12)


def test_haar_state_rejects_bad_dims():
    with pytest.raises(DimError):
        haar_random_state(0, 3, seed=1)


def test_haar_ensemble_mean_matches_independent_sampler():
    # Oracle: an independent reimplementation of the sampler on numpy's
    # generator; the two ensemble means must agree within 3 combined sigma.
    n, dim = 250, 4
    mine = [entanglement_entropy(haar_random_state(dim, dim, seed=s)) for s in range(n)]
    rng = np.random.default_rng(987)
    other = []
    for _ in range(n):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        other.append(entanglement_entropy(BipartiteState(g / np.linalg.norm(g))))
    mean1, mean2 = np.mean(mine), np.mean(other)
    sigma = math.sqrt(np.var(mine) / n + np.var(other) / n)
    assert abs(mean1 - mean2) <= 3.0 * sigma


def test_one_sided_generator_classification():
    for seed in range(10):
        psi, phi = generate_one_sided_pair(2, 3, 3, seed)
        assert states.classify_orthogonality(states.PairStack([(psi, phi)]), 0) is True
        assert trace_overlaps(psi, phi)[1] <= states.ORTHOGONALITY_TOL
        assert states.norm_squared(psi) == pytest.approx(1.0, abs=1e-9)
        assert states.norm_squared(phi) == pytest.approx(1.0, abs=1e-9)


def test_one_sided_generator_single_term_blocks():
    # d1 = d2 = 1 gives product states on disjoint B blocks (the A-side
    # frames are independent, so the pair need not be biorthogonal).
    psi, phi = generate_one_sided_pair(1, 1, 2, seed=3)
    assert entanglement_entropy(psi) == pytest.approx(0.0, abs=1e-9)
    assert entanglement_entropy(phi) == pytest.approx(0.0, abs=1e-9)
    assert states.classify_orthogonality(states.PairStack([(psi, phi)]), 0) is True
    assert trace_overlaps(psi, phi)[1] <= states.ORTHOGONALITY_TOL


def test_one_sided_generator_block_structure():
    psi, phi = generate_one_sided_pair(2, 2, 2, seed=11)
    assert psi.dim_b == 4
    assert np.max(np.abs(psi.coeffs[:, 2:])) == 0.0
    assert np.max(np.abs(phi.coeffs[:, :2])) == 0.0


def test_one_sided_generator_rejects_small_a_side():
    with pytest.raises(DimError):
        generate_one_sided_pair(3, 2, 2, seed=1)


def test_one_sided_generator_rejects_bad_arguments_before_drawing(monkeypatch):
    def refuse(seed):
        raise AssertionError(f"generator seeded with {seed!r}")

    monkeypatch.setattr(harness, "Xoshiro256StarStar", refuse)
    big = harness.MAX_STATE_DIM // 2
    for args in ((2.5, 2, 5, 1), (2, 2, 4.0, 1), (1, 1, 10**30, 1), (0, 2, 2, 1), (True, 1, 2, 1),
                 (big, big + 1, big + 1, 1)):  # d1 + d2 one past MAX_STATE_DIM
        with pytest.raises(DimError):
            generate_one_sided_pair(*args)
    with pytest.raises(DomainError, match="seed"):
        generate_one_sided_pair(2, 2, 5, 1.5)


def test_one_sided_generator_exactness_identity():
    rng = np.random.default_rng(19)
    for seed in range(10):
        psi, phi = generate_one_sided_pair(2, 2, 4, seed)
        z = rng.standard_normal(4)
        alpha = complex(z[0], z[1])
        beta = complex(z[2], z[3])
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        p = bounds.SuperpositionProblem.from_states(psi, phi, alpha / norm, beta / norm)
        report = bounds.certify(psi, phi, alpha / norm, beta / norm)
        assert report.exact_one_sided == pytest.approx(entanglement_entropy(p.gamma), abs=1e-9)


# -- reference examples ----------------------------------------------------------


def test_run_examples_statuses():
    rows = run_examples()
    failed = [(r.case, r.quantity) for r in rows if r.passed is False]
    assert failed == []
    # the finite-d maximizer sits at the window edge, so its row only informs;
    # the 25/28 location is checked at large d instead
    edge = [r for r in rows if r.case == "E4[d=2^16+1]" and r.quantity == "t_star(lower)"]
    assert len(edge) == 1 and edge[0].passed is None and edge[0].note
    large = [r for r in rows if r.case.startswith("E4[log2") and r.quantity == "t_star(lower)"]
    assert len(large) == 2 and all(r.passed for r in large)


def test_run_examples_documents_normalization_discrepancy():
    rows = run_examples()
    noted = [r for r in rows if "norm-divided" in r.quantity]
    assert len(noted) == 2
    assert all("discrepancy" in r.note for r in noted)
    assert all(r.passed for r in noted)


def test_examples_1_and_2_take_side_entropies_from_the_report(monkeypatch):
    calls = []
    reduced_density = states.reduced_density

    def counting(*args, **kwargs):
        calls.append(1)
        return reduced_density(*args, **kwargs)

    monkeypatch.setattr(states, "reduced_density", counting)
    harness._example1_rows()
    harness._example2_rows()
    # four problems, each with the 4 reduced operators of its one store row
    assert len(calls) == 16


# -- family spectra ----------------------------------------------------------------


def test_family_probs_match_dense_states():
    for d in (2, 5, 17):
        psi, phi = diagonal_family_states(d, "example3")
        probs = family_state_probs(d)
        assert entanglement_entropy(psi) == pytest.approx(
            -(probs * np.log2(probs)).sum(), abs=1e-12
        )
        gp, n2 = family_gamma_probs(d, 0.6, -0.8)
        gamma = states.superpose(0.6, psi, -0.8, phi)
        assert states.norm_squared(gamma) == pytest.approx(n2, abs=1e-12)
        assert entanglement_entropy(gamma) == pytest.approx(
            -((gp / n2) * np.log2(gp / n2)).sum(), abs=1e-10
        )


def test_sweep_matches_dense_certify_at_small_d():
    # the spectral sweep path must agree with the dense problem pipeline
    for family, beta in (("example3", -0.8), ("example4", 0.8)):
        record = dimension_sweep([9], family)[0]
        psi, phi = diagonal_family_states(9, family)
        report = bounds.certify(psi, phi, 0.6, beta)
        assert record.exact_e == pytest.approx(report.exact_e, abs=1e-10)
        assert record.lps == pytest.approx(report.lps_upper, abs=1e-10)
        assert record.t2 == pytest.approx(report.theorem2_upper, abs=1e-10)
        assert record.t3 == pytest.approx(report.theorem3_upper, abs=1e-10)
        assert record.t3_refined == pytest.approx(report.theorem3_refined_upper, abs=1e-10)
        assert record.lower == pytest.approx(report.lower_l, abs=1e-10)


def test_sweep_gap_structure_small_dimensions():
    records = dimension_sweep([5, 17, 257], "example3")
    gaps = [r.gap_lps for r in records]
    assert gaps == sorted(gaps)
    assert all(b > a for a, b in zip(gaps, gaps[1:]))
    # constants cancel between dimensions: each step adds (1/50) dlog2(d-1)
    expected_step = (math.log2(16) - math.log2(4)) / 50.0
    assert gaps[1] - gaps[0] == pytest.approx(expected_step, abs=1e-9)
    for r in records:
        assert r.gap_lower == pytest.approx(r.exact_e - r.lower, abs=1e-12)
        assert r.gap_lower >= -1e-8


def test_sweep_degenerate_dimension_two():
    record = dimension_sweep([2], "example3")[0]
    psi, _ = diagonal_family_states(2, "example3")
    assert entanglement_entropy(psi) == pytest.approx(1.0, abs=1e-12)
    assert record.lower - 1e-8 <= record.exact_e <= min(record.lps, record.t3) + 1e-8


def test_sweep_rejects_unknown_family():
    with pytest.raises(DomainError):
        dimension_sweep([5], "example5")


def test_family_gamma_probs_checks_d_as_family_state_probs_does():
    # d = 1 would divide by d - 1 = 0
    for bad in (1, 0, 2.0, True, harness.MAX_FAMILY_DIM + 1):
        for probs in (family_state_probs, lambda d: family_gamma_probs(d, 0.6, 0.8)):
            with pytest.raises(DomainError, match=f"family dimension d = {re.escape(repr(bad))}"):
                probs(bad)


def test_sweep_rejects_non_integral_dimensions_before_allocating(monkeypatch):
    def allocates(d):
        raise AssertionError(f"allocated a record for d = {d!r}")

    # a record's first d-length array is a repeat of the family's runs
    monkeypatch.setattr(np, "repeat", lambda values, counts: allocates(sum(counts)))
    for bad in (257.9, 257.0, "257", math.inf, math.nan, True, np.float64(257.0)):
        with pytest.raises(DomainError, match=re.escape(repr(bad))):
            dimension_sweep([5, bad], "example3")
    for d_list in (5, None, 5.0):
        with pytest.raises(DomainError, match=f"d_list = {d_list!r} is not iterable"):
            dimension_sweep(d_list, "example3")
    with pytest.raises(AssertionError, match="d = 5$"):
        dimension_sweep([np.int64(5)], "example3")


def _traced_peak(fn, *args) -> int:
    """Peak bytes traced by ``tracemalloc`` while fn(*args) runs, above what
    was allocated before the call."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("family", ["example3", "example4"])
def test_large_d_entropy_and_sweep_record_hold_few_d_length_arrays(family):
    # an all-positive spectrum's entropy takes one d-length temporary, and a
    # sweep record keeps one d-length array alive at a time (measured peak
    # 1.001 x 8d bytes at d = 2^18 + 1)
    d = 2**18 + 1
    alpha, beta = harness.family_coefficients(family)
    gp, n2 = family_gamma_probs(d, alpha, beta)
    for p in (family_state_probs(d), gp / n2):
        assert _traced_peak(qmath.shannon_entropy, p) <= 1.1 * 8 * d
    dimension_sweep([d], family)
    assert _traced_peak(dimension_sweep, [d], family) <= 1.1 * 8 * d


@pytest.mark.parametrize("d", [257, 4097, 2**16 + 1, 2**18 + 1])
@pytest.mark.parametrize("family", ["example3", "example4"])
def test_family_entropies_have_the_bits_of_the_dense_spectra(d, family):
    alpha, beta = harness.family_coefficients(family)
    gp, n2 = family_gamma_probs(d, alpha, beta)
    gp /= n2
    dense = (qmath.shannon_entropy(family_state_probs(d)), qmath.shannon_entropy(gp), n2)
    got = harness._family_entropies(d, alpha, beta)
    assert [x.hex() for x in got] == [x.hex() for x in dense]


@pytest.mark.parametrize("family", ["example3", "example4"])
def test_sweep_takes_logs_of_distinct_values_only(monkeypatch, family):
    # each spectrum of the family has two distinct values, so no log2 call
    # of a record sees more than two entries
    sizes = []
    log2 = np.log2

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return log2(x, *args, **kwargs)

    monkeypatch.setattr(np, "log2", counted)
    dimension_sweep([2**18 + 1], family)
    assert sizes and max(sizes) <= 2


def test_sweep_csv_format():
    records = dimension_sweep([5, 17], "example4")
    text = sweep_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "5"
    assert len(first) == len(SWEEP_COLUMNS)
    # 12 significant digits survive the round trip
    assert float(first[1]) == pytest.approx(records[0].exact_e, rel=1e-11)
    assert sweep_csv(iter(records)) == text
    for bad in (None, 5):
        with pytest.raises(DomainError, match=f"records = {bad!r} is not iterable"):
            sweep_csv(bad)
    for bad in ([1], records + [None], [r.d for r in records]):
        with pytest.raises(DomainError, match="not a SweepRecord"):
            sweep_csv(bad)


# -- rng ----------------------------------------------------------------------------


def test_rng_streams_are_deterministic_and_spawnable():
    a = Xoshiro256StarStar(42)
    b = Xoshiro256StarStar(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    # spawns depend only on (seed, index), not on consumed state
    child_early = Xoshiro256StarStar(42).spawn(3)
    parent = Xoshiro256StarStar(42)
    parent.next_u64()
    child_late = parent.spawn(3)
    assert child_early.next_u64() == child_late.next_u64()
    assert Xoshiro256StarStar(42).spawn(2).next_u64() != Xoshiro256StarStar(42).spawn(3).next_u64()


def test_rng_uniform_and_gaussian_ranges():
    rng = Xoshiro256StarStar(9)
    us = [rng.random() for _ in range(2000)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert 0.4 < sum(us) / len(us) < 0.6
    gs = [rng.gaussian() for _ in range(4000)]
    mean = sum(gs) / len(gs)
    var = sum((g - mean) ** 2 for g in gs) / len(gs)
    assert abs(mean) < 0.08
    assert 0.85 < var < 1.15


# -- audit ------------------------------------------------------------------------


def test_audit_deterministic_bytes():
    s1 = random_audit(40, 5, seed=2024)
    s2 = random_audit(40, 5, seed=2024)
    assert json.dumps(dataclasses.asdict(s1), sort_keys=True) == json.dumps(
        dataclasses.asdict(s2), sort_keys=True
    )


def test_audit_counts_and_margins():
    summary = random_audit(60, 6, seed=515)
    assert isinstance(summary, AuditSummary)
    assert summary.violations == 0
    assert summary.order_violations_t2 == 0
    assert summary.order_violations_t3 == 0
    assert summary.min_upper_margin > 0.0
    assert summary.min_lower_margin > 0.0
    worst = summary.worst_case
    assert set(worst) >= {"trial", "alpha", "beta", "psi", "phi", "exact_e"}


def test_audit_counts_injected_sanity_violations(monkeypatch):
    clean = random_audit(20, 4, seed=3)
    assert (clean.violations, clean.order_violations_t2, clean.order_violations_t3) == (0, 0, 0)
    assert clean.skipped_destructive == 0
    patch_reports(monkeypatch, lambda r: dataclasses.replace(r, sane=False))
    summary = random_audit(20, 4, seed=3)
    assert (summary.violations, summary.order_violations_t2, summary.order_violations_t3) == (20, 0, 0)


def test_audit_counts_bounds_just_above_lps(monkeypatch):
    # 1e-6 above the LPS bound is past AUDIT_ORDER_SLACK's rounding allowance
    patch_reports(
        monkeypatch,
        lambda r: dataclasses.replace(r, theorem2_upper=r.lps_upper + 1e-6, theorem3_upper=r.lps_upper + 1e-6),
    )
    summary = random_audit(20, 4, seed=3)
    assert (summary.violations, summary.order_violations_t2, summary.order_violations_t3) == (0, 20, 20)


def test_audit_worst_case_is_reproducible():
    summary = random_audit(30, 5, seed=77)
    worst = summary.worst_case
    psi = parse_state_file(json.dumps(worst["psi"]))
    phi = parse_state_file(json.dumps(worst["phi"]))
    alpha = complex(*worst["alpha"])
    beta = complex(*worst["beta"])
    report = bounds.certify(psi, phi, alpha, beta)
    assert report.exact_e == pytest.approx(worst["exact_e"], abs=1e-12)


def test_audit_summary_does_not_depend_on_its_batches(monkeypatch):
    batches = []
    certify_many = bounds.certify_many

    def spy(problems):
        batches.append(len(problems))
        return certify_many(problems)

    monkeypatch.setattr(bounds, "certify_many", spy)
    together = random_audit(40, 6, seed=11)
    monkeypatch.setattr(harness, "AUDIT_BATCH_COEFFS", 1)
    one_by_one = random_audit(40, 6, seed=11)
    assert batches == [40] + [1] * 40
    # JSON writes each float as its repr, which keeps every bit
    assert json.dumps(dataclasses.asdict(one_by_one)) == json.dumps(dataclasses.asdict(together))


def test_audit_rejects_bad_arguments(monkeypatch):
    # each is refused before any draw
    monkeypatch.setattr(harness, "_audit_draws", None)
    for args, kwargs in (
        ((0, 5), {}),
        ((5, 1), {}),
        ((5, harness.MAX_STATE_DIM + 1), {}),
        ((2.5, 6), {}),
        ((True, 6), {}),
        ((4, 6.0), {}),
        ((4, True), {}),
        ((4, 6), {"seed": 1.5}),
        ((4, 6), {"seed": True}),
        ((4, 6), {"seed": "7"}),
    ):
        with pytest.raises(DomainError):
            random_audit(*args, **kwargs)


def test_haar_state_rejects_non_integer_dimensions():
    for dims in ((2.5, 2), (2, 2.0), (True, 2), (0, 2), (2, -1), (10**30, 2), (2, harness.MAX_STATE_DIM + 1)):
        with pytest.raises(DimError):
            haar_random_state(*dims, 1)
    with pytest.raises(DomainError):
        haar_random_state(2, 2, 1.5)


def test_audit_counts_destructive_trials_separately(monkeypatch):
    # force every draw below the destructive threshold to exercise the skip
    # accounting; no random draw can hit it otherwise
    monkeypatch.setattr(bounds, "ZERO_NORM_SQ", 2.0)
    summary = random_audit(8, 3, seed=1)
    assert summary.skipped_destructive == 8
    assert summary.violations == 0
    assert math.isnan(summary.min_upper_margin)


def test_single_trial_pure_coefficient_tight_upper():
    # alpha = 1 collapses the superposition; the optimized upper bound must
    # land within 1e-6 of the exact value.
    psi = haar_random_state(4, 4, seed=31)
    phi = haar_random_state(4, 4, seed=32)
    report = bounds.certify(psi, phi, 1.0, 0.0)
    assert report.theorem3_upper - report.exact_e <= 1e-6
    assert report.sane
