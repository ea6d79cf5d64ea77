"""Correctness checks applied to every benchmark op.

Each check returns a list of failure reasons; an empty list means the op's
output is correct.  The reference values are computed here, independently of
the code under test: the exact entanglement comes from this module's own SVD
of gamma / ||gamma||, and the sweep references are the closed forms of the
diagonal family.  ``numpy.linalg.svd`` is bound at import, before any tracing
patch, so reference work is never counted as program work.
"""

from __future__ import annotations

import math

import numpy as np

_svd = np.linalg.svd

TOL = 1e-9


def h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def reference_exact(psi: np.ndarray, phi: np.ndarray, alpha: complex, beta: complex) -> float:
    """Entanglement of alpha psi + beta phi (states normalized first), in ebits."""
    gamma = alpha * psi / np.linalg.norm(psi) + beta * phi / np.linalg.norm(phi)
    s = _svd(gamma, compute_uv=False)
    p = s**2 / float((s**2).sum())
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def sweep_reference_exact(d: int, family: str) -> float:
    """Closed-form exact entanglement of the diagonal sweep family at size d."""
    weight = {"example3": 49.0 / 50.0, "example4": 1.0 / 50.0}[family]
    return weight * math.log2(d - 1) + h2(1.0 / 50.0)


def check_certify(report, ref_exact: float, one_sided: bool) -> list[str]:
    """Checks on one ``bounds.certify`` report."""
    failures = []
    if not report.sane:
        failures.append("report.sane is false")
    if abs(report.exact_e - ref_exact) > TOL:
        failures.append(f"exact_e {report.exact_e!r} != reference {ref_exact!r}")
    if report.theorem3_upper > report.lps_upper + TOL:
        failures.append("theorem3_upper exceeds lps_upper")
    if report.theorem3_refined_upper > report.theorem3_upper + TOL:
        failures.append("refined f(t) bound exceeds the plain one")
    if one_sided:
        if report.exact_one_sided is None:
            failures.append("one-sided pair not recognised")
        elif abs(report.exact_one_sided - report.exact_e) > TOL:
            failures.append(
                f"exact_one_sided {report.exact_one_sided!r} != exact_e {report.exact_e!r}"
            )
    return failures


def check_sweep(record, family: str) -> list[str]:
    """Checks on one ``harness.dimension_sweep`` record."""
    failures = []
    ref = sweep_reference_exact(record.d, family)
    if abs(record.exact_e - ref) > TOL:
        failures.append(f"exact_e {record.exact_e!r} != closed form {ref!r}")
    if record.t3 > record.lps + TOL:
        failures.append("t3 exceeds lps")
    return failures


def check_audit(exit_code: int, summary: dict) -> list[str]:
    """Checks on one in-process ``audit`` CLI call."""
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}")
    if summary.get("violations") != 0:
        failures.append(f"violations = {summary.get('violations')!r}")
    return failures


def upper_gap_certify(report) -> float:
    return min(
        report.lps_upper,
        report.theorem2_upper,
        report.theorem3_upper,
        report.theorem3_refined_upper,
    ) - report.exact_e


def upper_gap_sweep(record) -> float:
    return min(record.lps, record.t2, record.t3, record.t3_refined) - record.exact_e
