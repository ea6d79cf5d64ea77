"""Bit-identity guard for the ``examples`` and ``sweep`` outputs.

Every computed value of ``run_examples()`` and every float of
``dimension_sweep([257, 4097, 65537, 2**18 + 1], family)`` for both families, written
as ``float.hex`` and recorded before a change, with numpy 2.4 on OpenBLAS
0.3.  A refactor that moves any bit fails here.  As for
``test_report_bits.py``, a different LAPACK build may move the last bits of
the eigen- and singular values; the literals are then re-recorded from an
unchanged tree with that build, never from the changed one.
"""

import dataclasses

import pytest

from supent import harness


def test_examples_bits():
    got = [(r.case, r.quantity, float(r.computed).hex()) for r in harness.run_examples()]
    assert got == EXAMPLES


@pytest.mark.parametrize("family", ["example3", "example4"])
def test_sweep_bits(family):
    got = [
        tuple(v if isinstance(v, int) else v.hex() for v in dataclasses.astuple(r))
        for r in harness.dimension_sweep([257, 4097, 65537, 2**18 + 1], family)
    ]
    assert got == SWEEPS[family]


EXAMPLES = [
    ('E1[alpha=0.3]', 'E(psi)', '0x1.0000000000000p+0'),
    ('E1[alpha=0.3]', 'E(phi)', '0x1.0000000000000p+0'),
    ('E1[alpha=0.3]', 'exact_e', '0x1.0000000000001p+0'),
    ('E1[alpha=0.3]', 'one_sided_formula', '0x1.fffffffffffffp-1'),
    ('E1[alpha=0.3]', 'S_A(t=|alpha|^2)', '0x1.fffffffffffffp-1'),
    ('E1[alpha=0.3]', 'S_B(t=|alpha|^2)', '0x1.6fbc7c65fb3eap+0'),
    ('E1[alpha=0.6]', 'E(psi)', '0x1.0000000000000p+0'),
    ('E1[alpha=0.6]', 'E(phi)', '0x1.0000000000000p+0'),
    ('E1[alpha=0.6]', 'exact_e', '0x1.fffffffffffffp-1'),
    ('E1[alpha=0.6]', 'one_sided_formula', '0x1.fffffffffffffp-1'),
    ('E1[alpha=0.6]', 'S_A(t=|alpha|^2)', '0x1.fffffffffffffp-1'),
    ('E1[alpha=0.6]', 'S_B(t=|alpha|^2)', '0x1.f153af7c5760ap+0'),
    ('E1[alpha=0.7071]', 'E(psi)', '0x1.0000000000000p+0'),
    ('E1[alpha=0.7071]', 'E(phi)', '0x1.0000000000000p+0'),
    ('E1[alpha=0.7071]', 'exact_e', '0x1.0000000000000p+0'),
    ('E1[alpha=0.7071]', 'one_sided_formula', '0x1.0000000000000p+0'),
    ('E1[alpha=0.7071]', 'S_A(t=|alpha|^2)', '0x1.fffffffffffffp-1'),
    ('E1[alpha=0.7071]', 'S_B(t=|alpha|^2)', '0x1.0000000000000p+1'),
    ('E2', 'E(psi)', '0x1.8000000000000p+0'),
    ('E2', 'E(phi)', '0x1.8000000000000p+0'),
    ('E2', 'norm_sq(gamma)', '0x1.8000000000002p+0'),
    ('E2', 'exact_e', '0x1.95c01a39fbd68p+0'),
    ('E2', 'S_A(t=1/2)', '0x1.8000000000000p+0'),
    ('E2', 'S_B(t=1/2)', '0x1.0000000000000p+1'),
    ('E2', 'lps_upper', '0x1.aaaaaaaaaaaa8p+1'),
    ('E2', 'theorem2_upper', '0x1.5555555555553p+1'),
    ('E2', 'lps_upper - exact_e', '0x1.bf953b1b597e8p+0'),
    ('E2', 'theorem2_upper - exact_e', '0x1.14ea9070aed3ep+0'),
    ('E2', 'lps_upper (norm-divided variant)', '0x1.0547666079ba6p+2'),
    ('E2', 'theorem2_upper (norm-divided variant)', '0x1.a20bd700c2c3cp+1'),
    ('E3[d=2^16+1]', 'E(psi)', '0x1.2000000000000p+3'),
    ('E3[d=2^16+1]', 'exact_e', '0x1.fa493dad3a6b9p+3'),
    ('E3[d=2^16+1]', 't_star(f)', '0x1.b1445e9fba67dp-2'),
    ('E3[d=2^16+1]', 'stationarity residual at t_star', '0x1.769f920000000p-25'),
    ('E3[d=2^16+1]', 'f(3/7)', '0x1.3923025533cd7p+4'),
    ('E3[d=2^16+1]', 'f(3/7) - exact_e', '0x1.dff31bf4b4bd4p+1'),
    ('E3[d=2^16+1]', 'lps_upper', '0x1.3e2a75ef8aec1p+4'),
    ('E3[d=2^16+1]', 'f(t_star) - exact_e', '0x1.dfaa3aab41914p+1'),
    ('E3[d=2^16+1]', 'gap_lps strictly increasing over d in {2^8+1, 2^12+1, 2^16+1}', '0x1.47ae147ae1280p-4'),
    ('E3[d=2^16+1]', 'gap_t3 spread over the same dimensions', '0x1.b87d78ed18000p-10'),
    ('E4[d=2^16+1]', 'exact_e', '0x1.d883de9d0ffd3p-2'),
    ('E4[d=2^16+1]', 'L1(25/28)', '-0x1.8580250a326a8p-3'),
    ('E4[d=2^16+1]', 'exact_e - L1(25/28)', '0x1.4da1f89114994p-1'),
    ('E4[d=2^16+1]', 'optimized lower bound (branch L1) - L1(25/28)', '0x1.8580250a326a8p-3'),
    ('E4[d=2^16+1]', 't_star(lower)', '0x1.fffffff768fa1p-1'),
    ('E4[log2(d-1)=256]', 't_star(lower)', '0x1.cb9b4d678a3d6p-1'),
    ('E4[log2(d-1)=1024]', 't_star(lower)', '0x1.c9c25bd5f7f93p-1'),
]

SWEEPS = {'example3': [(257,
               '0x1.fecfebfe4be10p+2',
               '0x1.7c54ebdf15d83p+3',
               '0x1.7c54ebdf15d83p+3',
               '0x1.7744c0be2eec1p+3',
               '0x1.7744c0be2eec1p+3',
               '0x0.0p+0',
               '0x1.f3b3d77fbf9ecp+1',
               '0x1.df732afc23ee4p+1',
               '0x1.fecfebfe4be10p+2'),
              (4097,
               '0x1.7cd899d6302dep+3',
               '0x1.fc54ebdf15d82p+3',
               '0x1.fc54ebdf15d82p+3',
               '0x1.f4be299cb5760p+3',
               '0x1.f4be299cb5760p+3',
               '0x0.0p+0',
               '0x1.fdf1482396a90p+1',
               '0x1.df963f1a15208p+1',
               '0x1.7cd899d6302dep+3'),
              (65537,
               '0x1.fa493dad3a6b9p+3',
               '0x1.3e2a75ef8aec1p+4',
               '0x1.3e2a75ef8aec1p+4',
               '0x1.3919e62c0567fp+4',
               '0x1.3919e62c0567fp+4',
               '0x0.0p+0',
               '0x1.04175c63b6d92p+2',
               '0x1.dfaa3aab41914p+1',
               '0x1.fa493dad3a6b9p+3'),
              (262145,
               '0x1.1c80c7cc5fc4fp+4',
               '0x1.5e2a75ef8aec1p+4',
               '0x1.5e2a75ef8aec1p+4',
               '0x1.5876f1aed719fp+4',
               '0x1.5876f1aed719fp+4',
               '0x0.0p+0',
               '0x1.06a6b88cac9c8p+2',
               '0x1.dfb14f13baa80p+1',
               '0x1.1c80c7cc5fc4fp+4')],
 'example4': [(257,
               '0x1.34acd45f9f5aep-2',
               '0x1.7c54ebdf15d7fp+3',
               '0x1.7c54ebdf15d7fp+3',
               '0x1.7744c0be2eebdp+3',
               '0x1.7744c0be2eebdp+3',
               '0x0.0p+0',
               '0x1.72af853c18dd2p+3',
               '0x1.6d9f5a1b31f10p+3',
               '0x1.34acd45f9f5aep-2'),
              (4097,
               '0x1.8698597e57ac1p-2',
               '0x1.fc54ebdf15d84p+3',
               '0x1.fc54ebdf15d84p+3',
               '0x1.f4be299cb5762p+3',
               '0x1.f4be299cb5762p+3',
               '0x0.0p+0',
               '0x1.f0202913231aep+3',
               '0x1.e88966d0c2b8cp+3',
               '0x1.8698597e57ac1p-2'),
              (65537,
               '0x1.d883de9d0ffd3p-2',
               '0x1.3e2a75ef8aec7p+4',
               '0x1.3e2a75ef8aec7p+4',
               '0x1.3919e62c05685p+4',
               '0x1.3919e62c05685p+4',
               '0x0.0p+0',
               '0x1.36c8667516ac8p+4',
               '0x1.31b7d6b191286p+4',
               '0x1.d883de9d0ffd3p-2'),
              (262145,
               '0x1.00bcd09636133p-1',
               '0x1.5e2a75ef8aec6p+4',
               '0x1.5e2a75ef8aec6p+4',
               '0x1.5876f1aed71a4p+4',
               '0x1.5876f1aed71a4p+4',
               '0x0.0p+0',
               '0x1.56248f6ad93bcp+4',
               '0x1.50710b2a2569ap+4',
               '0x1.00bcd09636133p-1')]}
