"""Bit-identity guard: reports against literals recorded before a change.

Speed-ups to the searches must leave every reported number unchanged, bit
for bit.  The literals below are ``float.hex`` strings of a seeded audit
summary and of ``certify`` on six fixed problems (three Haar pairs, one of
them with |alpha|^2 = 1e-6 and a non-vacuous lower bound, and three
one-sided pairs), recorded under ``helpers.RECORDED_ENVIRONMENT``, which a
mismatch prints beside the running one.  A change that moves any of them
fails here.  A different LAPACK build may move the last
bits of the eigen- and singular values; the literals are then re-recorded
from an unchanged tree with that build, never from the changed one.

Each exact test has a kernel-independent companion that reads the same
literals back with ``float.fromhex``.  Measured against them under
OPENBLAS_CORETYPE = Haswell, Sandybridge and Nehalem, floats moved by at
most 5.3e-15 ebit and ``t_star_upper``, whose minimum is flat, by 4.0e-9;
no string, bool, int or worst-case trial moved.  The companions allow each
float 1e-12 and each t* 1e-6, and hold every other value exact.
"""

import dataclasses
import math

from helpers import pin_environments
from supent import bounds, harness


def _hexed(value):
    """``value`` with every float written as ``float.hex``.

    The worst audit trial's state documents are left out: its states come
    from the generator stream of its trial index, which is recorded.
    """
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items() if k not in ("psi", "phi")}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value


# a float's budget across BLAS kernels (ebit), and a t*'s (a flat optimum)
KERNEL_VALUE_TOL = 1e-12
KERNEL_T_STAR_TOL = 1e-6


def _assert_near(got, recorded, where):
    """``got`` matches the hexed ``recorded`` within the kernel budgets:
    floats within their tolerance, every other value exactly."""
    if isinstance(got, float):
        tol = KERNEL_T_STAR_TOL if where.endswith(("t_star_upper", "t_star_lower")) else KERNEL_VALUE_TOL
        assert abs(got - float.fromhex(recorded)) <= tol, where
    elif isinstance(got, dict):
        got = {k: v for k, v in got.items() if k not in ("psi", "phi")}
        assert got.keys() == recorded.keys(), where
        for key, value in got.items():
            _assert_near(value, recorded[key], f"{where}.{key}")
    elif isinstance(got, (list, tuple)):
        assert len(got) == len(recorded), where
        for i, (value, expected) in enumerate(zip(got, recorded)):
            _assert_near(value, expected, f"{where}[{i}]")
    else:
        assert type(got) is type(recorded) and got == recorded, where


def _problems():
    for d, seed, alpha, beta in (
        (3, 11, 0.6, 0.8j),
        (5, 12, complex(0.28, -0.96) * math.sqrt(0.3), math.sqrt(0.7)),
        (8, 13, 1e-3, math.sqrt(1 - 1e-6)),
    ):
        psi = harness.haar_random_state(d, d, seed)
        phi = harness.haar_random_state(d, d, seed + 100)
        yield psi, phi, alpha, beta
    for dims, seed, alpha, beta in (
        ((2, 3, 4), 21, 0.6, -0.8),
        ((3, 3, 8), 22, math.sqrt(0.5), math.sqrt(0.5) * 1j),
        ((2, 2, 3), 23, 0.9, math.sqrt(1 - 0.81)),
    ):
        yield (*harness.generate_one_sided_pair(*dims, seed), alpha, beta)


def test_audit_summary_bits():
    assert _hexed(dataclasses.asdict(harness.random_audit(200, 6, seed=7))) == AUDIT, pin_environments()


def test_audit_summary_within_kernel_rounding():
    _assert_near(dataclasses.asdict(harness.random_audit(200, 6, seed=7)), AUDIT, "audit")


def test_certify_report_bits():
    got = [_hexed(dataclasses.asdict(bounds.certify(*p))) for p in _problems()]
    for i, (report, recorded) in enumerate(zip(got, REPORTS)):
        assert report == recorded, f"report {i}: {pin_environments()}"
    assert len(got) == len(REPORTS)


def test_certify_reports_within_kernel_rounding():
    got = [dataclasses.asdict(bounds.certify(*p)) for p in _problems()]
    _assert_near(got, REPORTS, "reports")


AUDIT = {'n_trials': 200,
 'max_dim': 6,
 'seed': 7,
 'violations': 0,
 'order_violations_t2': 0,
 'order_violations_t3': 0,
 'skipped_destructive': 0,
 'min_upper_margin': '0x1.872b858d1bd84p-2',
 'mean_upper_margin': '0x1.19a2b2fbfeefdp+1',
 'min_lower_margin': '0x1.a4ec9657d2801p-4',
 'mean_lower_margin': '0x1.15ed1f5fe956ap+0',
 'worst_case': {'trial': 192,
                'dim_a': 2,
                'dim_b': 3,
                'alpha': ['-0x1.deeafacba5da0p-1', '0x1.19be476f49fe9p-2'],
                'beta': ['-0x1.8559e740c9783p-3', '0x1.d6b9182801141p-4'],
                'exact_e': '0x1.a4ec9657d2801p-4',
                'upper_margin': '0x1.c5ee995f0830dp-1',
                'lower_margin': '0x1.a4ec9657d2801p-4',
                'sane': True}}

REPORTS = [{'exact_e': '0x1.8188569868649p-1',
  'lps_upper': '0x1.e2a2cb60e6140p+1',
  'theorem2_upper': '0x1.7816aaa6806c3p+1',
  'theorem3_upper': '0x1.e26bae8e70e20p+1',
  't_star_upper': '0x1.63bfe8d3970b1p-2',
  'theorem3_refined_upper': '0x1.77ff4c2ab7f9ap+1',
  'lower_l': '0x0.0p+0',
  't_star_lower': '0x1.fffffff768fa1p-1',
  'branch': 'L1',
  'lower_raw': '-0x1.0b9fceac4693fp-25',
  'simple_lower': None,
  'exact_one_sided': None,
  'sane': True,
  's_a': '0x1.38fa805feebacp+0',
  's_b': '0x1.bbfa540f47c3ep-1'},
 {'exact_e': '0x1.940317481bbc3p+0',
  'lps_upper': '0x1.4b6cefa40b4dbp+2',
  'theorem2_upper': '0x1.3a32eeb1a08d5p+2',
  'theorem3_upper': '0x1.4859a8ad9badcp+2',
  't_star_upper': '0x1.660a75cb10596p-2',
  'theorem3_refined_upper': '0x1.36813bb6890fdp+2',
  'lower_l': '0x0.0p+0',
  't_star_lower': '0x1.fffffff768fa1p-1',
  'branch': 'L1',
  'lower_raw': '-0x1.fa905d2098b27p-26',
  'simple_lower': None,
  'exact_one_sided': None,
  'sane': True,
  's_a': '0x1.dfdda9050ab58p+0',
  's_b': '0x1.bffb20272ce81p+0'},
 {'exact_e': '0x1.31328e3c17e68p+1',
  'lps_upper': '0x1.31294699aee85p+2',
  'theorem2_upper': '0x1.312945028df66p+2',
  'theorem3_upper': '0x1.32b138082d748p+1',
  't_star_upper': '0x1.b7cd692933eaap-12',
  'theorem3_refined_upper': '0x1.32ae9d1d4ffb4p+1',
  'lower_l': '0x1.2fa0b5c5eec60p+1',
  't_star_lower': '0x1.ffc92f03cf1c0p-1',
  'branch': 'L1',
  'lower_raw': '0x1.2fa0b5c5eec60p+1',
  'simple_lower': None,
  'exact_one_sided': None,
  'sane': True,
  's_a': '0x1.313ab7b21f0d6p+1',
  's_b': '0x1.313ab94958226p+1'},
 {'exact_e': '0x1.5872ee07e5664p+0',
  'lps_upper': '0x1.e614cc5b7ebdap+1',
  'theorem2_upper': '0x1.5872ee07e5662p+1',
  'theorem3_upper': '0x1.c52d70bd34552p+1',
  't_star_upper': '0x1.15faa9da05a1dp-1',
  'theorem3_refined_upper': '0x1.32d7d2eead8e6p+1',
  'lower_l': '0x0.0p+0',
  't_star_lower': '0x1.fffffff768fa1p-1',
  'branch': 'L1',
  'lower_raw': '-0x1.f16a080044d6ep-26',
  'simple_lower': '-0x1.1d0efebc03f2fp+0',
  'exact_one_sided': '0x1.5872ee07e5663p+0',
  'sane': True,
  's_a': '0x1.5872ee07e5664p+0',
  's_b': '0x1.e614cc5b7ebddp+0'},
 {'exact_e': '0x1.51563c3e841a4p+0',
  'lps_upper': '0x1.8f7f3760670ebp+1',
  'theorem2_upper': '0x1.51563c3e841a4p+1',
  'theorem3_upper': '0x1.8a098dfe8c9aap+1',
  't_star_upper': '0x1.2996106734f08p-1',
  'theorem3_refined_upper': '0x1.4c15c37078e07p+1',
  'lower_l': '0x0.0p+0',
  't_star_lower': '0x1.fffffff768fa1p-1',
  'branch': 'L1',
  'lower_raw': '-0x1.08ae126408e38p-25',
  'simple_lower': '-0x1.ffffffffffffep+0',
  'exact_one_sided': '0x1.51563c3e841a6p+0',
  'sane': True,
  's_a': '0x1.51563c3e841a9p+0',
  's_b': '0x1.8f7f3760670f0p+0'},
 {'exact_e': '0x1.22db712c0b384p+0',
  'lps_upper': '0x1.b33117414b0e8p+1',
  'theorem2_upper': '0x1.22db712c0b382p+1',
  'theorem3_upper': '0x1.aa3c9993fef6bp+1',
  't_star_upper': '0x1.8054f34677865p-1',
  'theorem3_refined_upper': '0x1.0cf691c69a00fp+1',
  'lower_l': '0x0.0p+0',
  't_star_lower': '0x1.fffffff768fa1p-1',
  'branch': 'L2',
  'lower_raw': '-0x1.e270c977bd671p-26',
  'simple_lower': '-0x1.bb6344b163c17p-1',
  'exact_one_sided': '0x1.22db712c0b383p+0',
  'sane': True,
  's_a': '0x1.22db712c0b383p+0',
  's_b': '0x1.b33117414b0eap+0'}]
