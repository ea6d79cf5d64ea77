"""State file I/O, random ensembles, reference examples, sweeps, and audits.

State files are JSON documents listing only the nonzero amplitudes, so the
sparse reference states stay human-readable and diffable:

    {"dim_a": 2, "dim_b": 4, "label": "bell",
     "entries": [[0, 0, 0.7071067811865476, 0.0],
                 [1, 1, 0.7071067811865476, 0.0]]}

The dimension sweeps use a diagonal state family whose Schmidt spectra are
known in closed form; at the largest swept dimensions the dense coefficient
matrices would not fit in memory, so all bound evaluations go through the
spectral probability vectors and the scalar bound layer.
"""

from __future__ import annotations

import cmath
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import bounds, qmath
from .bounds import SuperpositionProblem
from .errors import DimError, DomainError, ParseError
from .qmath import binary_entropy, check_integer
from .rng import Xoshiro256StarStar, _stream_gaussians
from .states import BipartiteState

__all__ = [
    "DEFAULT_SEED",
    "SweepRecord",
    "ExampleRow",
    "AuditSummary",
    "parse_state_file",
    "state_document",
    "haar_random_state",
    "generate_one_sided_pair",
    "bell_block_pair",
    "overlapping_triple_pair",
    "run_examples",
    "dimension_sweep",
    "sweep_csv",
    "random_audit",
]

DEFAULT_SEED = 0x5EED

# Largest dim_a or dim_b of a state file or a drawn state: certifying
# eigendecomposes reduced densities of that size, and a 4096 x 4096 complex
# matrix takes 256 MiB.
MAX_STATE_DIM = 4096

# Most state coefficients (psi and phi) in one batch of audit trials, which
# are drawn and certified together; a larger trial is its own batch.  At
# max-dim 6 a batch holds about 250 trials, whose (trials x 257) grid arrays
# take 0.5 MiB each; 2^16 was only 4 % faster.
AUDIT_BATCH_COEFFS = 2**13

# Largest sweep dimension d: a record peaks at about 8 d bytes (32 MiB).
MAX_FAMILY_DIM = 2**22 + 1

# The dimension d = 2^16 + 1 of the diagonal family in Examples 3 and 4.
EXAMPLE_DIM = 2**16 + 1

# Least unnormalized weight of a drawn simplex point: -log(1 - r) is 0 for a
# draw r = 0, and the floor keeps every Schmidt coefficient of a one-sided
# pair positive, so its states have Schmidt ranks d1 and d2.
SIMPLEX_FLOOR = 1e-12

# Tolerance, in ebits, of an example row's computed value against its closed
# form, and slack of E4's check that the optimized lower bound is at least
# L1(25/28).  Each compares two float evaluations of one number below 20
# ebits, which differ by rounding: at most 3.6e-15 in any row.
EXAMPLE_TOL = 1e-9

# Tolerance of the three rows that check a derived quantity: the
# stationarity residual at E3's searched t*, and E3's and E4's gaps, which
# are independent of d.  The search places a minimum only to about sqrt(u)
# (u = 2^-53), where f is flat to rounding, and the residual it leaves
# measured 4.4e-8; the gaps, differences of two values that grow with
# log2(d - 1), measured 2.7e-15 and 1.4e-15 off.
EXAMPLE_DERIVED_TOL = 1e-6

# How far below exact_e an upper bound may fall in an example's order row:
# rounding of values below 20 ebits, a few times 4e-15.  The rows' margins
# are at least 1.08 ebits.
EXAMPLE_ORDER_SLACK = 1e-12

# Tolerance of a searched t* against the value it tends to as E grows, 3/7
# for E3's f and 25/28 for E4's L1: it measured 5.5e-3 off at E3's
# d = 2^16 + 1, and 4.8e-3 and 1.2e-3 at E4's log2(d - 1) = 256 and 1024.
T_STAR_TOL = 1e-2

# How far Theorem 2's and f's optimized bound may exceed the LPS bound in an
# audit's order counts, in ebits.  Theorem 2 subtracts a non-negative term
# from it, and f's candidates include t = |alpha|^2, where f equals it in
# exact arithmetic; the two formulas round differently, by a few ulps of the
# bound, which 1e-9 covers for bounds up to about 1e5 ebits.
AUDIT_ORDER_SLACK = 1e-9


# ---------------------------------------------------------------------------
# State files.
# ---------------------------------------------------------------------------


def parse_state_file(text: str) -> BipartiteState:
    """Parse a JSON state document; unnormalized amplitudes are accepted.

    Raises ParseError, with line, field or entry context, for any document
    that is not one: bad JSON, JSON nested too deeply or with an integer too
    long to read, a bad field, or an amplitude index outside the grid.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # a > 4300-digit integer, deep nesting
        raise ParseError(f"unreadable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    dim_a, dim_b = doc.get("dim_a"), doc.get("dim_b")
    check_integer(1, MAX_STATE_DIM, ParseError, **{"field 'dim_a'": dim_a, "field 'dim_b'": dim_b})
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise ParseError("field 'entries' must be a list")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError("field 'label' must be a string")
    coeffs = np.zeros((dim_a, dim_b), dtype=complex)
    seen: set[tuple[int, int]] = set()
    for k, entry in enumerate(entries):
        if not isinstance(entry, (list, tuple)) or len(entry) != 4:
            raise ParseError(f"entry {k}: expected [i, j, re, im]")
        i, j, re, im = entry
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j)):
            raise ParseError(f"entry {k}: indices must be integers")
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (re, im)):
            raise ParseError(f"entry {k}: amplitudes must be real numbers")
        if not (0 <= i < dim_a and 0 <= j < dim_b):
            raise ParseError(f"entry {k}: index ({i}, {j}) outside the {dim_a}x{dim_b} grid")
        if (i, j) in seen:
            raise ParseError(f"entry {k}: duplicate index ({i}, {j})")
        seen.add((i, j))
        try:
            amplitude = complex(re, im)
        except OverflowError as exc:
            raise ParseError(f"entry {k}: amplitude does not fit a float") from exc
        # json reads 1e400 as inf, and accepts the literals Infinity and NaN
        if not cmath.isfinite(amplitude):
            raise ParseError(f"entry {k}: amplitude {amplitude!r} is not a finite float")
        coeffs[i, j] = amplitude
    return BipartiteState(coeffs)


def state_document(state: BipartiteState, label: Optional[str] = None) -> dict:
    """JSON-ready document for a state, listing nonzero amplitudes row-major."""
    entries = [
        [int(i), int(j), float(c.real), float(c.imag)]
        for (i, j), c in np.ndenumerate(state.coeffs)
        if c != 0
    ]
    doc = {"dim_a": state.dim_a, "dim_b": state.dim_b, "entries": entries}
    if label is not None:
        doc["label"] = label
    return doc


# ---------------------------------------------------------------------------
# Random ensembles.
# ---------------------------------------------------------------------------


def haar_random_state(dim_a: int, dim_b: int, seed: int) -> BipartiteState:
    """Normalized state with i.i.d. complex Gaussian amplitudes.

    Raises DimError unless both dimensions are integers in [1, MAX_STATE_DIM],
    and DomainError unless the seed is an integer.
    """
    check_integer(1, MAX_STATE_DIM, DimError, dim_a=dim_a, dim_b=dim_b)
    check_integer(-math.inf, seed=seed)
    return _haar_state(Xoshiro256StarStar(seed), dim_a, dim_b)


def _haar_state(rng: Xoshiro256StarStar, dim_a: int, dim_b: int) -> BipartiteState:
    return _unit_state(rng.complex_gaussian_matrix(dim_a, dim_b))


def _unit_state(g: np.ndarray) -> BipartiteState:
    return BipartiteState(g / np.linalg.norm(g))


def generate_one_sided_pair(
    d1: int, d2: int, dim_a: int, seed: int
) -> tuple[BipartiteState, BipartiteState]:
    """Random one-sided orthogonal pair on a dim_a x (d1 + d2) system.

    Draws positive spectra summing to one and random orthonormal A-side
    frames, then places the two states' B-side Schmidt vectors on disjoint
    computational-basis blocks of sizes d1 and d2.  The output always
    satisfies the B-side orthogonality condition; the two A-side frames are
    independent, so the pair is generally not biorthogonal.

    Before any draw, raises DimError unless d1, d2, d1 + d2 and dim_a are
    integers in [1, MAX_STATE_DIM] with dim_a >= max(d1, d2), and
    DomainError unless the seed is an integer.
    """
    check_integer(1, MAX_STATE_DIM, DimError, d1=d1, d2=d2, dim_a=dim_a)
    check_integer(1, MAX_STATE_DIM, DimError, **{"d1 + d2": d1 + d2})
    if dim_a < max(d1, d2):
        raise DimError(f"dim_a={dim_a} cannot carry {max(d1, d2)} Schmidt vectors")
    check_integer(-math.inf, seed=seed)
    rng = Xoshiro256StarStar(seed)
    p = _random_simplex(rng, d1)
    q = _random_simplex(rng, d2)
    u = _random_frame(rng, dim_a, d1)
    v = _random_frame(rng, dim_a, d2)
    dim_b = d1 + d2
    c_psi = np.zeros((dim_a, dim_b), dtype=complex)
    c_phi = np.zeros((dim_a, dim_b), dtype=complex)
    c_psi[:, :d1] = u * np.sqrt(p)
    c_phi[:, d1:] = v * np.sqrt(q)
    return BipartiteState(c_psi), BipartiteState(c_phi)


def _random_simplex(rng: Xoshiro256StarStar, n: int) -> np.ndarray:
    w = np.array([-math.log(1.0 - rng.random()) for _ in range(n)])  # 1 - r >= 2^-53
    w = np.maximum(w, SIMPLEX_FLOOR)
    return w / w.sum()


def _random_frame(rng: Xoshiro256StarStar, dim: int, k: int) -> np.ndarray:
    g = rng.complex_gaussian_matrix(dim, k)
    q, _ = np.linalg.qr(g)
    return q[:, :k]


# ---------------------------------------------------------------------------
# Reference states.
# ---------------------------------------------------------------------------


def bell_block_pair() -> tuple[BipartiteState, BipartiteState]:
    """Two Bell-type states whose B-side supports sit on disjoint blocks."""
    s = 1.0 / math.sqrt(2.0)
    psi = np.zeros((2, 4), dtype=complex)
    phi = np.zeros((2, 4), dtype=complex)
    psi[0, 0] = psi[1, 1] = s
    phi[0, 2] = phi[1, 3] = s
    return BipartiteState(psi), BipartiteState(phi)


def overlapping_triple_pair() -> tuple[BipartiteState, BipartiteState]:
    """3x4 pair sharing two Schmidt terms, overlap 1/2."""
    psi = np.zeros((3, 4), dtype=complex)
    phi = np.zeros((3, 4), dtype=complex)
    psi[0, 0] = math.sqrt(0.5)
    psi[1, 1] = 0.5
    psi[2, 2] = 0.5
    phi[0, 3] = math.sqrt(0.5)
    phi[1, 1] = 0.5
    phi[2, 2] = 0.5
    return BipartiteState(psi), BipartiteState(phi)


def family_coefficients(family: str) -> tuple[float, float]:
    if family == "example3":
        return 0.6, -0.8
    if family == "example4":
        return 0.6, 0.8
    raise DomainError(f"unknown family {family!r} (expected 'example3' or 'example4')")


def _family_dim(d) -> int:
    """``d`` as an int, checked to be an integer in the family's range before
    any allocation."""
    check_integer(2, MAX_FAMILY_DIM, **{"family dimension d": d})
    return int(d)


def _family_runs(d, alpha: float, beta: float) -> tuple[np.ndarray, tuple[int, int]]:
    """Run form (values, counts) of the squared diagonal amplitudes of
    alpha psi + beta phi at size d: (alpha + beta)^2 / 2 once, then
    (alpha - beta)^2 / (2 (d - 1)) d - 1 times.  (1, 0) gives psi's squared
    Schmidt coefficients, 1/2 and 1 / (2 (d - 1)), with the same bits."""
    d = _family_dim(d)
    head = (alpha + beta) ** 2 / 2.0
    tail = (alpha - beta) ** 2 / (2.0 * (d - 1))
    return np.array([head, tail]), (1, d - 1)


def _family_entropies(d: int, alpha: float, beta: float) -> tuple[float, float, float]:
    """(E(psi), exact E(gamma), N^2) of the family with coefficients (alpha, beta)
    at size d; E(phi) = E(psi).

    Each comes from the two distinct values of its spectrum: two logs per
    entropy, and three d-length sums (each entropy's repeated terms and
    gamma's repeated squared amplitudes), one array alive at a time.  The
    sums run over the dense order, so every value has the bits of
    ``shannon_entropy`` and ``sum`` on the dense spectra
    ``np.repeat(values, counts)`` (gamma's divided by N^2).
    """
    state, counts = _family_runs(d, 1.0, 0.0)
    gamma, _ = _family_runs(d, alpha, beta)
    n2 = float(np.repeat(gamma, counts).sum())
    return qmath._run_entropy(state, counts), qmath._run_entropy(gamma / n2, counts), n2


# ---------------------------------------------------------------------------
# Reference-example report.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExampleRow:
    """One checked quantity of a reference example.

    ``passed`` is None for purely informational rows.
    """

    case: str
    quantity: str
    computed: float
    expected: Optional[float] = None
    tol: Optional[float] = None
    passed: Optional[bool] = None
    note: str = ""


def _check_row(
    case: str,
    quantity: str,
    computed: float,
    expected: float,
    tol: float = EXAMPLE_TOL,
    note: str = "",
) -> ExampleRow:
    return ExampleRow(
        case=case,
        quantity=quantity,
        computed=float(computed),
        expected=float(expected),
        tol=tol,
        passed=abs(computed - expected) <= tol,
        note=note,
    )


def _order_row(case: str, quantity: str, gap: float) -> ExampleRow:
    """An upper bound's ``gap`` over exact_e, passing unless it is negative
    beyond EXAMPLE_ORDER_SLACK."""
    return ExampleRow(case, quantity, gap, passed=gap >= -EXAMPLE_ORDER_SLACK)


def run_examples() -> list[ExampleRow]:
    """Recompute every headline quantity of the four reference examples."""
    rows: list[ExampleRow] = []
    rows.extend(_example1_rows())
    rows.extend(_example2_rows())
    rows.extend(_example3_rows())
    rows.extend(_example4_rows())
    return rows


def _example1_rows() -> list[ExampleRow]:
    rows = []
    psi, phi = bell_block_pair()
    for alpha in (0.3, 0.6, 1.0 / math.sqrt(2.0)):
        beta = math.sqrt(1.0 - alpha * alpha)
        case = f"E1[alpha={alpha:.4g}]"
        prob = SuperpositionProblem.from_states(psi, phi, alpha, beta)
        (report,) = bounds.certify_many([prob])
        rows.append(_check_row(case, "E(psi)", prob.e_psi, 1.0))
        rows.append(_check_row(case, "E(phi)", prob.e_phi, 1.0))
        rows.append(_check_row(case, "exact_e", report.exact_e, 1.0))
        rows.append(_check_row(case, "one_sided_formula", report.exact_one_sided, 1.0))
        rows.append(_check_row(case, "S_A(t=|alpha|^2)", report.s_a, 1.0))
        rows.append(
            _check_row(case, "S_B(t=|alpha|^2)", report.s_b, 1.0 + binary_entropy(alpha * alpha))
        )
    return rows


def _example2_rows() -> list[ExampleRow]:
    case = "E2"
    s = 1.0 / math.sqrt(2.0)
    psi, phi = overlapping_triple_pair()
    prob = SuperpositionProblem.from_states(psi, phi, s, s)
    (report,) = bounds.certify_many([prob])
    exact, lps, t2 = report.exact_e, report.lps_upper, report.theorem2_upper
    rows = [
        _check_row(case, "E(psi)", prob.e_psi, 1.5),
        _check_row(case, "E(phi)", prob.e_phi, 1.5),
        _check_row(case, "norm_sq(gamma)", prob.gamma_norm_sq, 1.5),
        _check_row(case, "exact_e", exact, math.log2(3.0)),
        _check_row(case, "S_A(t=1/2)", report.s_a, 1.5),
        _check_row(case, "S_B(t=1/2)", report.s_b, 2.0),
        _check_row(case, "lps_upper", lps, 10.0 / 3.0),
        _check_row(case, "theorem2_upper", t2, 8.0 / 3.0),
        _order_row(case, "lps_upper - exact_e", lps - exact),
        _order_row(case, "theorem2_upper - exact_e", t2 - exact),
        _check_row(
            case,
            "lps_upper (norm-divided variant)",
            lps * math.sqrt(prob.gamma_norm_sq),
            5.0 * math.sqrt(2.0 / 3.0),
            note=(
                "documented discrepancy: the reference value 5*sqrt(2/3) matches the "
                "bound divided by ||gamma|| instead of ||gamma||^2; the implemented "
                "bound is 10/3"
            ),
        ),
        _check_row(
            case,
            "theorem2_upper (norm-divided variant)",
            t2 * math.sqrt(prob.gamma_norm_sq),
            4.0 * math.sqrt(2.0 / 3.0),
            note=(
                "documented discrepancy: the reference value 4*sqrt(2/3) matches the "
                "bound divided by ||gamma|| instead of ||gamma||^2; the implemented "
                "bound is 8/3"
            ),
        ),
    ]
    return rows


def _example3_rows() -> list[ExampleRow]:
    case = "E3[d=2^16+1]"
    alpha, beta = family_coefficients("example3")
    asq = alpha * alpha
    log_d1 = math.log2(EXAMPLE_DIM - 1)
    e_state, exact, n2 = _family_entropies(EXAMPLE_DIM, alpha, beta)
    t3, t3_star = bounds.minimize_f_scalar(e_state, e_state, asq, n2)
    f37 = bounds.f_upper_value(3.0 / 7.0, e_state, e_state, asq, n2)
    f37_direct = (49.0 / 25.0) * (e_state + binary_entropy(3.0 / 7.0)) / n2
    reference_gap = (49.0 / 25.0) * (1.0 + binary_entropy(3.0 / 7.0)) - binary_entropy(
        1.0 / 50.0
    )
    lps = bounds.lps_upper_value(e_state, e_state, asq, n2)
    residual = bounds.theorem3_stationarity_residual(t3_star, e_state, e_state, asq)
    rows = [
        _check_row(case, "E(psi)", e_state, 0.5 * log_d1 + 1.0),
        _check_row(case, "exact_e", exact, (49.0 / 50.0) * log_d1 + binary_entropy(1.0 / 50.0)),
        _check_row(case, "t_star(f)", t3_star, 3.0 / 7.0, T_STAR_TOL),
        _check_row(case, "stationarity residual at t_star", residual, 0.0, EXAMPLE_DERIVED_TOL),
        _check_row(case, "f(3/7)", f37, f37_direct),
        _check_row(
            case,
            "f(3/7) - exact_e",
            f37 - exact,
            reference_gap,
            EXAMPLE_DERIVED_TOL,
            note="(49/25)(1 + h2(3/7)) - h2(1/50), independent of d",
        ),
        _check_row(
            case,
            "lps_upper",
            lps,
            log_d1 + 2.0 + 2.0 * binary_entropy(asq),
            note="grows like log2(d-1); diverges from exact_e as d grows",
        ),
        _order_row(case, "f(t_star) - exact_e", t3 - exact),
    ]
    sweep = dimension_sweep([2**8 + 1, 2**12 + 1, EXAMPLE_DIM], "example3")
    diffs = [b.gap_lps - a.gap_lps for a, b in zip(sweep, sweep[1:])]
    spread = max(r.gap_t3 for r in sweep) - min(r.gap_t3 for r in sweep)
    rows.append(
        ExampleRow(
            case,
            "gap_lps strictly increasing over d in {2^8+1, 2^12+1, 2^16+1}",
            min(diffs),
            passed=all(x > 0 for x in diffs),
            note="each step adds (1/50) * delta log2(d-1)",
        )
    )
    rows.append(
        ExampleRow(
            case,
            "gap_t3 spread over the same dimensions",
            spread,
            passed=spread < 0.05,
            note="the optimized bound tracks exact_e while the LPS bound diverges",
        )
    )
    return rows


def _example4_rows() -> list[ExampleRow]:
    case = "E4[d=2^16+1]"
    alpha, beta = family_coefficients("example4")
    asq, bsq = alpha * alpha, beta * beta
    log_d1 = math.log2(EXAMPLE_DIM - 1)
    e_state, exact, n2 = _family_entropies(EXAMPLE_DIM, alpha, beta)
    t_ref = 25.0 / 28.0
    l1_ref = bounds.lower_value(t_ref, e_state, e_state, asq / n2, bsq / n2, "L1")
    l1_closed = (
        (1.0 / 50.0) * log_d1 + 1.0 / 25.0 - (28.0 / 25.0) * binary_entropy(t_ref)
    )
    gap_closed = (
        binary_entropy(1.0 / 50.0) - 1.0 / 25.0 + (28.0 / 25.0) * binary_entropy(t_ref)
    )
    raw, t_star, branch = bounds.maximize_lower_scalar(
        e_state, e_state, asq / n2, bsq / n2
    )
    rows = [
        _check_row(case, "exact_e", exact, (1.0 / 50.0) * log_d1 + binary_entropy(1.0 / 50.0)),
        _check_row(case, "L1(25/28)", l1_ref, l1_closed),
        _check_row(
            case,
            "exact_e - L1(25/28)",
            exact - l1_ref,
            gap_closed,
            EXAMPLE_DERIVED_TOL,
            note="approximately 0.65, independent of d",
        ),
        ExampleRow(
            case,
            f"optimized lower bound (branch {branch}) - L1(25/28)",
            max(0.0, raw) - l1_ref,
            passed=max(0.0, raw) >= l1_ref - EXAMPLE_TOL,
        ),
        ExampleRow(
            case,
            "t_star(lower)",
            t_star,
            note=(
                "L1(25/28) < 0 at this dimension and L1 -> 0 from below as t -> 1, "
                "so the maximizer sits at the right edge of the search window"
            ),
        ),
    ]
    # 25/28 maximizes the coefficient of E in L1; the interior maximizer
    # approaches it like 0.617/E, so it is checked where E is large, through
    # the scalar layer (E = 1 + log2(d-1)/2, N^2 = alpha^2 + beta^2 = 1).
    for log_d1 in (256, 1024):
        e_large = 1.0 + 0.5 * log_d1
        raw, t_star, branch = bounds.maximize_lower_scalar(e_large, e_large, asq, bsq)
        rows.append(
            ExampleRow(
                f"E4[log2(d-1)={log_d1}]",
                "t_star(lower)",
                t_star,
                expected=t_ref,
                tol=T_STAR_TOL,
                passed=abs(t_star - t_ref) <= T_STAR_TOL and branch == "L1" and raw > 0.0,
                note=f"branch {branch}, raw {raw:.4g}; must be L1 with raw > 0",
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Dimension sweeps.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRecord:
    d: int
    exact_e: float
    lps: float
    t2: float
    t3: float
    t3_refined: float
    lower: float
    gap_lps: float
    gap_t3: float
    gap_lower: float


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRecord))


def dimension_sweep(d_list, family: str) -> list[SweepRecord]:
    """Evaluate every bound for the diagonal family at each dimension.

    Raises DomainError, before any evaluation, for an unknown family, a
    ``d_list`` that is not iterable, or a dimension ``_family_dim`` refuses.
    """
    alpha, beta = family_coefficients(family)
    d_list = [_family_dim(d) for d in _listed("d_list", d_list)]
    return [_sweep_record(d, alpha, beta) for d in d_list]


def _sweep_record(d: int, alpha: float, beta: float) -> SweepRecord:
    e_state, exact, n2 = _family_entropies(d, alpha, beta)
    asq = alpha * alpha
    bsq = beta * beta

    # psi and phi have the same diagonal reduced spectrum on both sides, so
    # every mixture of them does too and |S_A(t) - S_B(t)| is identically 0:
    # Theorem 2 reduces to LPS and the refined f to the plain one.
    lps = bounds.lps_upper_value(e_state, e_state, asq, n2)
    t3, _ = bounds.minimize_f_scalar(e_state, e_state, asq, n2)
    raw, _, _ = bounds.maximize_lower_scalar(e_state, e_state, asq / n2, bsq / n2)
    lower = max(0.0, raw)
    return SweepRecord(
        d=d,
        exact_e=exact,
        lps=lps,
        t2=lps,
        t3=t3,
        t3_refined=t3,
        lower=lower,
        gap_lps=lps - exact,
        gap_t3=t3 - exact,
        gap_lower=exact - lower,
    )


def sweep_csv(records) -> str:
    """Render sweep records as CSV, floats with 12 significant digits.

    Raises DomainError, before rendering any, unless ``records`` is an
    iterable of SweepRecords.
    """
    records = _listed("records", records)
    for r in records:
        if not isinstance(r, SweepRecord):
            raise DomainError(f"records holds {r!r:.80}, not a SweepRecord")
    lines = [",".join(SWEEP_COLUMNS)]
    for r in records:
        values = [f"{r.d}"] + [
            f"{getattr(r, c):.12g}" for c in SWEEP_COLUMNS[1:]
        ]
        lines.append(",".join(values))
    return "\n".join(lines) + "\n"


def _listed(name: str, items) -> list:
    """``items`` as a list; raises DomainError, naming it ``name``, unless it is iterable."""
    if not isinstance(items, Iterable):
        raise DomainError(f"{name} = {items!r:.80} is not iterable")
    return list(items)


# ---------------------------------------------------------------------------
# Random audit.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditSummary:
    n_trials: int
    max_dim: int
    seed: int
    violations: int
    order_violations_t2: int
    order_violations_t3: int
    skipped_destructive: int
    min_upper_margin: float
    mean_upper_margin: float
    min_lower_margin: float
    mean_lower_margin: float
    worst_case: dict


def random_audit(n_trials: int, max_dim: int, seed: int = DEFAULT_SEED) -> AuditSummary:
    """Check the bound ordering on seeded random problems.

    Each trial draws Haar-random states with dimensions in [2, max_dim] and
    (alpha, beta) uniform on the complex unit sphere from a per-trial stream,
    then certifies the problem.  Fully destructive draws are skipped and
    counted.  The trial with the smallest margin is serialized so it can be
    reproduced from the summary alone.  Trials are certified in batches
    (``bounds.certify_many``) and summarized in trial order.
    """
    check_integer(1, n_trials=n_trials)
    # certifying eigendecomposes reduced densities of up to max_dim x max_dim
    check_integer(2, MAX_STATE_DIM, max_dim=max_dim)
    check_integer(-math.inf, seed=seed)
    violations = 0
    t2_violations = 0
    t3_violations = 0
    skipped = 0
    upper_margins: list[float] = []
    lower_margins: list[float] = []
    worst: dict = {}
    worst_margin = math.inf
    reports = (pair for batch in _audit_draws(n_trials, max_dim, seed) for pair in _certified_batch(batch))
    for (trial, psi, phi, alpha, beta), report in reports:
        if report is None:
            skipped += 1
            continue
        if not report.sane:
            violations += 1
        if report.theorem2_upper > report.lps_upper + AUDIT_ORDER_SLACK:
            t2_violations += 1
        if report.theorem3_upper > report.lps_upper + AUDIT_ORDER_SLACK:
            t3_violations += 1
        upper_min = min(
            report.lps_upper,
            report.theorem2_upper,
            report.theorem3_upper,
            report.theorem3_refined_upper,
        )
        upper_margin = upper_min - report.exact_e
        lower_margin = report.exact_e - report.lower_l
        upper_margins.append(upper_margin)
        lower_margins.append(lower_margin)
        margin = min(upper_margin, lower_margin)
        if margin < worst_margin:
            worst_margin = margin
            worst = {
                "trial": trial,
                "dim_a": psi.dim_a,
                "dim_b": psi.dim_b,
                "alpha": [alpha.real, alpha.imag],
                "beta": [beta.real, beta.imag],
                "psi": state_document(psi, label=f"audit trial {trial} psi"),
                "phi": state_document(phi, label=f"audit trial {trial} phi"),
                "exact_e": report.exact_e,
                "upper_margin": upper_margin,
                "lower_margin": lower_margin,
                "sane": report.sane,
            }
    done = len(upper_margins)
    return AuditSummary(
        n_trials=n_trials,
        max_dim=max_dim,
        seed=seed,
        violations=violations,
        order_violations_t2=t2_violations,
        order_violations_t3=t3_violations,
        skipped_destructive=skipped,
        min_upper_margin=min(upper_margins) if done else math.nan,
        mean_upper_margin=sum(upper_margins) / done if done else math.nan,
        min_lower_margin=min(lower_margins) if done else math.nan,
        mean_lower_margin=sum(lower_margins) / done if done else math.nan,
        worst_case=worst,
    )


def _audit_draws(n_trials: int, max_dim: int, seed: int):
    """Lists of (trial, psi, phi, alpha, beta), one per certify batch of at
    most AUDIT_BATCH_COEFFS state coefficients (or one trial, if larger),
    each trial from its own stream.

    Each trial's ``spawn`` stream gives d_A and d_B, then psi and phi, then
    the Gaussians of z1 and z2: 2 d_A d_B + 2 accepted polar pairs, which
    one ``rng._stream_gaussians`` call draws for the whole batch.
    """
    base = Xoshiro256StarStar(seed)
    streams = (_trial_stream(base, trial, max_dim) for trial in range(n_trials))
    for batch in _batches(streams, lambda s: 2 * s[2] * s[3]):
        gaussians = _stream_gaussians([rng for _, rng, _, _ in batch], [2 * a * b + 2 for _, _, a, b in batch])
        yield [(trial, *_trial_draw(g, a, b)) for (trial, _, a, b), g in zip(batch, gaussians)]


def _trial_stream(base: Xoshiro256StarStar, trial: int, max_dim: int):
    """(trial, stream, d_A, d_B): the trial's stream just after its two
    dimensions."""
    rng = base.spawn(trial)
    return trial, rng, rng.randint(2, max_dim), rng.randint(2, max_dim)


def _trial_draw(g: np.ndarray, dim_a: int, dim_b: int):
    """(psi, phi, alpha, beta) from a trial's 4 d_A d_B + 4 Gaussians:
    psi, phi, then z1 and z2, divided by their norm.

    The norm is never 0.  z1 is the pair after psi's and phi's pairs, one
    accepted polar pair (u, v) with 0 < u^2 + v^2 < 1, so no spare variate
    is carried into it.  u and v are multiples of 2^-52, one of them
    nonzero, so it is at least 2^-52 in size, and the polar factor
    sqrt(-2 ln(r2) / r2) with r2 <= 1 - 2^-53 is at least 2^-26.  So
    |z1|^2 >= 2^-156 > 0.
    """
    n = 2 * dim_a * dim_b
    psi = _unit_state(g[:n].view(complex).reshape(dim_a, dim_b))
    phi = _unit_state(g[n : 2 * n].view(complex).reshape(dim_a, dim_b))
    re1, im1, re2, im2 = g[2 * n :].tolist()
    z1, z2 = complex(re1, im1), complex(re2, im2)
    norm = math.sqrt(abs(z1) ** 2 + abs(z2) ** 2)
    return psi, phi, z1 / norm, z2 / norm


def _batches(items, size):
    """Lists of consecutive ``items`` of at most AUDIT_BATCH_COEFFS state
    coefficients in all, by ``size(item)`` (or one item, if larger)."""
    batch, held = [], 0
    for item in items:
        if batch and held + size(item) > AUDIT_BATCH_COEFFS:
            yield batch
            batch, held = [], 0
        batch.append(item)
        held += size(item)
    if batch:
        yield batch


def _certified_batch(batch):
    """(draw, report) for each audit draw of one batch, in order.  The
    batch's problems are built together
    (``SuperpositionProblem.from_states_many``) and certified together; a
    fully destructive draw gets report None."""
    problems = SuperpositionProblem.from_states_many(d[1:] for d in batch)
    reports = iter(bounds.certify_many([p for p in problems if p is not None]))
    for draw, problem in zip(batch, problems):
        yield draw, None if problem is None else next(reports)
