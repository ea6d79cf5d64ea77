#!/usr/bin/env python3
"""Mutation run: every mutant below breaks one check or tolerance in
``src/supent``, and the test suite must fail on it.

    python3 tools/mutants.py

The script first runs the suite on an unmutated copy of the repository and
prints the tests that fail there (BASELINE): the bit pins hold on one BLAS
kernel only, so under another one (say ``OPENBLAS_CORETYPE=Haswell``) they
fail with no mutant at all.  Such a test kills no mutant.  Then, for each
mutant, it copies the repository (without its history and caches) into a
temporary directory, replaces the mutant's old text (which must occur
exactly once in its file) by its new text, runs ``python -m pytest -q
tests`` there (all but ``test_mutants.py``, which checks this list against
the unchanged ``src/``) and prints KILLED, with the tests that failed there
but pass at baseline, or SURVIVED.  It exits 1 if any mutant survived.  Each
run of ``tests/`` takes about 10 s on a 2-core x86 host.  Standard library
only.
"""

import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
# A mutant whose run takes longer than this counts as killed (a hang).
RUN_TIMEOUT_S = 600
# The test that checks this list against the unchanged src/; a mutant
# changes src/, so the run leaves it out.
SELF_TEST = "tests/test_mutants.py"
# What the copy of the tree leaves out: history, caches and benchmark output.
UNCOPIED = (".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".bench_out")
# Failing tests printed per killed mutant.
SHOWN_KILLERS = 5


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/supent
    old: str
    new: str
    reason: str


MUTANTS = (
    Mutant(
        "audit-ignores-sane",
        "harness.py",
        "if not report.sane:\n            violations += 1",
        "if not report.sane:\n            violations += 0",
        "random_audit stops counting reports that read sane = False",
    ),
    Mutant(
        "audit-order-slack",
        "harness.py",
        "AUDIT_ORDER_SLACK = 1e-9",
        "AUDIT_ORDER_SLACK = 1.0",
        "the audit's order counts miss a bound up to 1 ebit above the LPS bound",
    ),
    Mutant(
        "audit-exit-0",
        "cli.py",
        "return 0 if counts == (0, 0, 0) else 1",
        "return 0",
        "the audit command exits 0 when it found violations",
    ),
    Mutant(
        "audit-exit-ignores-order",
        "cli.py",
        "counts = (summary.violations, summary.order_violations_t2, summary.order_violations_t3)",
        "counts = (summary.violations, 0, 0)",
        "the audit command exits 0 when a bound lies above the LPS bound",
    ),
    Mutant(
        "examples-exit-0",
        "cli.py",
        "return 0 if n_fail == 0 else 1",
        "return 0",
        "the examples command exits 0 when a checked row failed",
    ),
    Mutant(
        "t-star-tol",
        "harness.py",
        "T_STAR_TOL = 1e-2",
        "T_STAR_TOL = 1.0",
        "the examples' t* rows pass any t* in the window",
    ),
    Mutant(
        "audit-any-max-dim",
        "harness.py",
        "check_integer(2, MAX_STATE_DIM, max_dim=max_dim)",
        "check_integer(2, math.inf, max_dim=max_dim)",
        "random_audit takes any max_dim, so an oversized one draws and "
        "certifies states of that width instead of failing at once",
    ),
    Mutant(
        "sanity-slack",
        "bounds.py",
        "SANITY_SLACK = 1e-8",
        "SANITY_SLACK = 1.0",
        "sane passes an exact value up to 1 ebit outside the bounds",
    ),
    Mutant(
        "orthogonality-tol",
        "states.py",
        "ORTHOGONALITY_TOL = 1e-9",
        "ORTHOGONALITY_TOL = 1e-3",
        "a side with a trace overlap up to 1e-3 counts as orthogonal",
    ),
    Mutant(
        "one-sided-ignores-a-side",
        "states.py",
        "for rho1, rho2 in stack.operators(row)",
        "for rho1, rho2 in stack.operators(row)[1:]",
        "classify_orthogonality reads the B side only, so a pair one-sided on "
        "the A side alone gets no Lemma 1 value",
    ),
    Mutant(
        "operators-wrapped-row",
        "states.py",
        "qmath.check_integer(0, len(self._views) - 1, row=row)",
        "qmath.check_integer(-len(self._views), len(self._views) - 1, row=row)",
        "PairStack.operators takes a negative row, so classify_orthogonality "
        "answers for the row that Python's list indexing wraps it to",
    ),
    Mutant(
        "parallel-tol",
        "bounds.py",
        "PARALLEL_TOL = 1e-9",
        "PARALLEL_TOL = 1e-2",
        "subspace_lower rejects states with |<psi|phi>| above 0.99 as parallel",
    ),
    Mutant(
        "zero-norm",
        "states.py",
        "ZERO_NORM_SQ = 1e-12",
        "ZERO_NORM_SQ = 1e-6",
        "a superposition with N^2 up to 1e-6 counts as fully destructive",
    ),
    Mutant(
        "subspace-returns-zero",
        "bounds.py",
        "                return 0.0\n    return best",
        "                return 0.0\n    return 0.0",
        "subspace_lower returns 0 when its scan never reaches 0, so it "
        "certifies nothing on any span",
    ),
    Mutant(
        "no-cap",
        "bounds.py",
        "bracket = bracket - (min(delta, h) if isinstance(h, float) else np.minimum(delta, h))",
        "bracket = bracket - delta",
        "the refined f subtracts |S_A - S_B| uncapped, so rounding near the "
        "window's edge takes it below the exact value of a product gamma",
    ),
    Mutant(
        "max-iter",
        "optimize.py",
        "MAX_ITER = 200",
        "MAX_ITER = 5",
        "golden section stops after 5 steps",
    ),
    Mutant(
        "tol",
        "optimize.py",
        "TOL = 1e-10",
        "TOL = 1e-6",
        "golden section stops at a bracket of 1e-6",
    ),
    Mutant(
        "half-delta-cap",
        "bounds.py",
        "return np.clip(np.maximum(hi[0] - lo[1], hi[1] - lo[0]), 0.0, None)",
        "return 0.5 * np.clip(np.maximum(hi[0] - lo[1], hi[1] - lo[0]), 0.0, None)",
        "the refined search's pruning floor uses half the certified gap cap, "
        "so it can skip a grid point that holds the minimum",
    ),
    Mutant(
        "cap-under-chord",
        "bounds.py",
        "hi.append(np.minimum(left, right))",
        "hi.append(np.minimum(np.minimum(left, right), lo[-1]))",
        "the refined search's gap cap bounds each side entropy from above by "
        "its chord, a ceiling below the entropy, so it can skip a grid point "
        "that holds the minimum",
    ),
    Mutant(
        "pruned-best-over-bounds",
        "bounds.py",
        "best = values[:, _KNOTS].min(axis=1)",
        "best = values.min(axis=1)",
        "the refined search takes its best grid value over bounds as well as "
        "computed values, so it rules out points that may hold the grid minimum",
    ),
    Mutant(
        "pruned-stops-early",
        "bounds.py",
        "if rows.size:\n        last_a, last_b = stack.entropies(rows, t[i])",
        "if False:\n        last_a, last_b = stack.entropies(rows, t[i])",
        "the points still in doubt after the refined search's last level keep "
        "their bounds as grid values, so the grid minimum can be a bound",
    ),
    Mutant(
        "lane-np-log",
        "rng.py",
        "log = np.fromiter(map(math.log, r2.tolist()), np.float64, r2.size)",
        "log = np.log(r2)",
        "the lane path's polar factor takes np.log, which differs from the loop's "
        "math.log in the last bit on about 0.35 % of arguments",
    ),
    Mutant(
        "lane-drops-spare",
        "rng.py",
        "self._spare_gaussian = float(out[n])",
        "self._spare_gaussian = None",
        "an odd draw, a pair at a time or in lanes, drops the second variate "
        "of its last pair instead of keeping it for the next call",
    ),
    Mutant(
        "lane-state-pair-short",
        "rng.py",
        "used = 2 * (int(accepted[-1]) + 1) if r2.size == need else 2 * len(uv)",
        "used = 2 * int(accepted[-1]) if r2.size == need else 2 * len(uv)",
        "a lane draw leaves the generator's state one pair of outputs short, "
        "so the next draw repeats the last pair's uniforms",
    ),
    Mutant(
        "stream-no-overdraw",
        "rng.py",
        "2 * math.ceil(_attempts(want.max()))",
        "2 * want.max()",
        "the audit's stream pass draws as many attempts as the largest stream "
        "wants pairs, so the streams that want the most come up short and "
        "draw themselves again",
    ),
    Mutant(
        "stream-all-lanes",
        "rng.py",
        "lane = counts <= LANE_MIN_VARIATES",
        "lane = counts > 0",
        "every audit stream joins the lane pass, however many pairs it wants: "
        "the bits stay, but each lane of a batch with a large trial is stepped "
        "as far as that trial needs",
    ),
    Mutant(
        "stream-pairs-one-short",
        "rng.py",
        "taken = inside & (rank <= want[:, None]) & ~short[:, None]",
        "taken = inside & (rank < want[:, None]) & ~short[:, None]",
        "each audit stream takes one accepted pair fewer than its trial needs, "
        "so the trials' variates are cut in the wrong places",
    ),
    Mutant(
        "stream-short-taken",
        "rng.py",
        "short = rank[:, -1] < want",
        "short = rank[:, -1] < 0",
        "an audit stream that comes up short is taken as drawn, not drawn "
        "again by itself, so its trial lacks variates",
    ),
    Mutant(
        "lane-jump-late-block",
        "rng.py",
        "_apply(_jump_tables()[level], starts[done - (1 << level) :][:new])",
        "_apply(_jump_tables()[level], starts[done - new : done])",
        "a short last block of lane starts jumps from the last starts so far, not "
        "the first of the last 2^l, so its lanes start at the wrong outputs",
    ),
    Mutant(
        "entropy-rounding",
        "bounds.py",
        "ENTROPY_ROUNDING = 1e-9",
        "ENTROPY_ROUNDING = 0.0",
        "the refined search's pruning floor allows no rounding in the side "
        "entropies, so it can rule out the grid point that holds the minimum",
    ),
    Mutant(
        "floor-at-tie",
        "optimize.py",
        "if not v > bar:",
        "if not v >= bar:",
        "a lone search takes a floor equal to the value its point is compared "
        "with, so a tie the floor makes can keep the wrong side of the bracket",
    ),
    Mutant(
        "floor-no-rounding",
        "bounds.py",
        "return _f_value(x, h, *params, _cap_at(x, ts, sa, sb)) - _allowance(x, h, *params)",
        "return _f_value(x, h, *params, _cap_at(x, ts, sa, sb))",
        "the lone refined search's floor allows no rounding in the side "
        "entropies, so it can stand in for a lower value and turn a step",
    ),
    Mutant(
        "secant-any-reach",
        "bounds.py",
        "SECANT_REACH = 2.0",
        "SECANT_REACH = math.inf",
        "the refined search's gap cap extends a neighbour's secant however far "
        "past its interval, so the secant of a golden-section point's sliver "
        "beside a grid point carries its rounding across the next interval",
    ),
    Mutant(
        "lower-edge-rounding",
        "bounds.py",
        "LOWER_EDGE_ROUNDING = 1e-12",
        "LOWER_EDGE_ROUNDING = 0.0",
        "the lower search rules a branch out on a margin within rounding, so a "
        "problem can get other bits than from searching both branches",
    ),
    Mutant(
        "max-entanglement",
        "bounds.py",
        "MAX_ENTANGLEMENT = 1e6",
        "MAX_ENTANGLEMENT = 1e300",
        "the scalar layer takes entanglements and delta_s up to 1e300, where "
        "its bounds overflow to inf",
    ),
)


def run(mutant: Mutant | None) -> list[str]:
    """The tests that fail with ``mutant`` (None: no mutant) applied to a
    copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="supent-mutant-") as tmp:
        tree = pathlib.Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*UNCOPIED))
        if mutant is not None:
            path = tree / "src" / "supent" / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.file}")
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--ignore={SELF_TEST}", "tests"],
                cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return [f"(no result in {RUN_TIMEOUT_S} s)"]
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    if done.returncode != 0 and not failed:
        failed = [f"(pytest exit {done.returncode})"]
    return failed


def main() -> int:
    baseline = run(None)
    if any(name.startswith("(") for name in baseline):
        raise SystemExit(f"the unmutated suite gives no test results: {baseline[0]}")
    print(f"BASELINE {len(baseline)} failing without a mutant: {', '.join(baseline) or '-'}", flush=True)
    survived = 0
    for mutant in MUTANTS:
        failed = [name for name in run(mutant) if name not in baseline]
        if failed:
            more = f" and {len(failed) - SHOWN_KILLERS} more" if len(failed) > SHOWN_KILLERS else ""
            print(f"KILLED   {mutant.name}: {', '.join(failed[:SHOWN_KILLERS])}{more}", flush=True)
        else:
            survived += 1
            print(f"SURVIVED {mutant.name}: {mutant.reason}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
