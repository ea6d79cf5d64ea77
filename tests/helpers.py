"""Shared test utilities: seeded random states and unitaries, dense oracles
of what the package computes in stacks or in run form, injected faults, and
the environment the exact pins were recorded under."""

import ctypes
import json
import pathlib

import numpy as np

from supent import BipartiteState, bounds, harness, states


def random_state(rng, dim_a, dim_b):
    g = rng.standard_normal((dim_a, dim_b)) + 1j * rng.standard_normal((dim_a, dim_b))
    return BipartiteState(g / np.linalg.norm(g))


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_sphere_pair(rng):
    """(alpha, beta) uniform on the complex unit sphere."""
    z = rng.standard_normal(4)
    alpha = complex(z[0], z[1])
    beta = complex(z[2], z[3])
    norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return alpha / norm, beta / norm


def entanglement_entropy(s):
    """Entropy of entanglement of one state, in ebits."""
    return states.entanglement_entropies([s])[0]


def trace_overlaps(psi, phi):
    """(Tr[rho_A(psi) rho_A(phi)], Tr[rho_B(psi) rho_B(phi)]), the per-side
    facts behind ``states.classify_orthogonality``'s one flag."""
    return tuple(
        float(np.trace(states.reduced_density(psi, side) @ states.reduced_density(phi, side)).real)
        for side in "AB"
    )


def serialize_state(state, label=None):
    """A state file's text for ``state``."""
    return json.dumps(harness.state_document(state, label), indent=2) + "\n"


def family_state_probs(d):
    """Squared Schmidt coefficients of the diagonal family state at size d."""
    return np.repeat(*harness._family_runs(d, 1.0, 0.0))


def family_gamma_probs(d, alpha, beta):
    """Unnormalized squared amplitudes of the superposed family state, and
    their sum N^2."""
    gp = np.repeat(*harness._family_runs(d, alpha, beta))
    return gp, float(gp.sum())


def diagonal_family_states(d, family):
    """Dense d x d (psi, phi) of the sweep family (small d only)."""
    amps = np.sqrt(family_state_probs(d)).astype(complex)
    phi_amps = amps.copy()
    phi_amps[1:] *= -1.0
    return BipartiteState(np.diag(amps)), BipartiteState(np.diag(phi_amps))


def patch_reports(monkeypatch, change):
    """Make ``bounds.certify_many`` return change(report) for each report."""
    certify_many = bounds.certify_many
    monkeypatch.setattr(bounds, "certify_many", lambda problems: [change(r) for r in certify_many(problems)])


# What the exact report pins (tests/test_report_bits.py) and criterion 5's
# audit digest were recorded under: eigvalsh and svd round differently under
# other OpenBLAS kernels, and np.log2 under numpy's other dispatch targets,
# so elsewhere their last bits may move.
RECORDED_ENVIRONMENT = "numpy 2.4.6, scipy-openblas 0.3.31.188.0, core SkylakeX, numpy dispatch up to AVX512_SPR"


def _openblas_core():
    """The kernel set numpy's scipy-openblas picked, or "unknown"."""
    for path in sorted((pathlib.Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def running_environment():
    """The running environment in RECORDED_ENVIRONMENT's form: numpy's
    version, its BLAS and version, the OpenBLAS core, and the highest SIMD
    target numpy dispatches to."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    found = config["SIMD Extensions"]["found"] or ["baseline"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}, core {_openblas_core()}, numpy dispatch up to {found[-1]}"


def pin_environments():
    """An exact pin's mismatch note: the recording and the running environment."""
    return f"recorded under {RECORDED_ENVIRONMENT}; running under {running_environment()}"
