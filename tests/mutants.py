"""Mutation catalogue: faults put into the package on purpose, each of which the Tier-1 suite must catch.

Each :class:`Mutant` names a file, a text that occurs in it exactly once, the
text that replaces it, and what the fault breaks. ``python tests/mutants.py``,
from any directory, copies the repository (without ``.git``) to a temporary
directory, checks that the unmutated copy passes Tier-1, and then, for each
mutant, applies it to a fresh copy and runs Tier-1 there with ``-x``.
``python tests/mutants.py WORD ...`` runs only the mutants whose description
(``why``) contains one of the words, still after the unmutated check. The
mutant is killed when the suite fails. Tier-1's output is captured: for a
killed mutant, and for an unmutated copy that fails, the runner prints the
node id of the first failing test, from pytest's ``FAILED`` (or ``ERROR``)
summary line. The run fails, with exit status 1, if a
mutant survives that is not listed as equivalent, if one listed as equivalent
is killed, or if an entry's text is not found exactly once. pytest does not
collect this file, since its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
#: the Tier-1 command, stopped at the first failure
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


class Mutant(NamedTuple):
    path: str  # from the repository root
    old: str  # occurs exactly once in the file
    new: str
    why: str  # what the fault breaks
    equivalent: str | None = None  # why no test can tell the mutant from the package, if none can


MUTANTS = (
    Mutant("src/bctsim/harness.py", "(raw >= outputs[0]) & (raw <= outputs[1])",
           "(raw >= outputs[0]) & (raw < outputs[1])",
           "the window tally leaves out the last raw output whose theta is in window two"),
    Mutant("src/bctsim/protocol.py", "k = (raw >> 52).view(np.intp)", "k = (raw >> 53).view(np.intp)",
           "the screen reads a raw theta output's bin off its top 11 bits, not its top 12"),
    Mutant("src/bctsim/geometry.py", "return s, (a - (s - bb)) + (b - bb)", "return s, 0.0",
           "TwoSum loses its error term, so a table edge can be one float off"),
    Mutant("src/bctsim/protocol.py", "_sign(math.sin(f - (lo + hi) / 2.0))", "_sign(math.sin(f - lo))",
           "the exact expectation reads the sine's sign at a segment's start, where it may vanish"),
    Mutant("src/bctsim/protocol.py", "if self.negate[0] != self.negate[1]:", "if False:",
           "the exact expectation ignores opposite negations of its two axes"),
    Mutant("src/bctsim/protocol.py", "math.fsum(equal)", "(math.fsum(equal[:-1]) + equal[-1])",
           "the exact expectation rounds twice, adding its last segment after the others' correctly rounded sum"),
    Mutant("src/bctsim/analysis.py", "zip(table.accept(grid), table.negate)",
           "zip(table.accept(grid), table.negate[:1] * 2)",
           "the consistency audit applies the forward axis's negation to both axes"),
    Mutant("src/bctsim/protocol.py", "b, bob_alpha = geometry._separator(b, math.pi), (bob_alpha + 5) % 10",
           "b, bob_alpha = b + math.pi, (bob_alpha + 5) % 10",
           "a reflected axis is not wrapped back into [0, 2*pi)"),
    Mutant("src/bctsim/protocol.py", "_NO_SEPARATOR = (-1, -1, False, -1, math.nan, math.nan, 1.0)",
           "_NO_SEPARATOR = (-1, -1, False, 0, math.nan, math.nan, 1.0)",
           "a step with no separator reports the separator index 0"),
    Mutant("src/bctsim/protocol.py", "coin, b = float(coin), normalize_angle(float(b))",
           "coin, b = float(coin), float(b)", "a Bob step evaluates and records an axis outside [0, 2*pi) as given"),
    Mutant("src/bctsim/protocol.py", "read = {system for _, system in tests}", 'read = {"beta", "gamma"}',
           "a table build reads Alice's slot in a system no live axis uses"),
    Mutant("src/bctsim/analysis.py", "_FRAME_AXES = (WALKTHROUGH_B1, WALKTHROUGH_B1 + math.pi)",
           "_FRAME_AXES = (WALKTHROUGH_B1 + math.pi, WALKTHROUGH_B1)",
           "the frame's table holds its two axes in swapped order"),
    Mutant("src/bctsim/protocol.py", "*_alice_slots(a, theta, {axis[2]})", '*_alice_slots(a, theta, ("beta", "gamma"))',
           "p_equal_given_theta reads Alice's slot in both systems, whatever system its axis uses"),
    Mutant("src/bctsim/protocol.py", "_branch(axis, alice_beta_slot, alice_gamma_slot, theta)",
           "_branch(axis, alice_gamma_slot, alice_beta_slot, theta)",
           "Bob's array step reads Alice's slot in the system its axis does not use"),
    Mutant("src/bctsim/geometry.py", "flip = t if at != lo else up", "flip = t",
           "a table edge is the candidate t whatever its certificate says, one float low where the flip is above t"),
    Mutant("src/bctsim/geometry.py", "(2 if gamma[3] < TWO_PI else 1)", "(2 if gamma[3] <= TWO_PI else 1)",
           "Alice's cell counts gamma's s - 2*pi as below every angle when s is exactly 2*pi"),
    Mutant("src/bctsim/protocol.py", '"_terminate", self.flip_semantics is FlipSemantics.TERMINATE)',
           '"_terminate", False)', "a terminating reading continues on the reflected axis"),
    Mutant("src/bctsim/analysis.py", "_FRAME_AXES = (WALKTHROUGH_B1, WALKTHROUGH_B1 + math.pi)",
           "_FRAME_AXES = (WALKTHROUGH_B1, WALKTHROUGH_B1 - math.pi)",
           "the frame's second axis is spelled b1 - pi",
           equivalent="every caller normalizes Bob's axis at entry, and -pi normalizes to pi exactly"),
    Mutant("src/bctsim/geometry.py", "map(operator.le, bounds", "map(operator.lt, bounds",
           "the array slot rule ranks an angle on a bound below it (side='left')"),
    Mutant("src/bctsim/geometry.py", "return bisect_right(bounds, x)",
           "return bisect_right(bounds, x) - (x in bounds)",
           "the float slot rule ranks an angle on a bound below it (side='left')"),
    Mutant("src/bctsim/geometry.py", "return y - TWO_PI * (y >= TWO_PI)", "return y",
           "normalizing leaves an angle that rounds up onto a full turn at 2*pi instead of folding it to 0"),
    Mutant("src/bctsim/geometry.py", "y = big if low < 0.0 else math.nextafter(big, math.inf)",
           "y = math.nextafter(big, math.inf)",
           "a table edge's least double above x + 2*pi skips the rounded sum when that sum rounds up"),
    Mutant("src/bctsim/protocol.py", "alpha_slot_cyclic_difference(i, j) > 2", "alpha_slot_cyclic_difference(i, j) >= 2",
           "the cyclic reflection rule's fire table also fires at a cyclic distance of exactly 2"),
    Mutant("src/bctsim/harness.py", "_cos2_rows(config, ((None, config.strategy),))",
           "_cos2_rows(config, ((None, NO_FLIP),))", "the correlation experiment samples NO_FLIP whatever its strategy"),
    Mutant("src/bctsim/harness.py", 'optional=("theta_grid", "flip_semantics")',
           'optional=("theta_grid", "strategy", "flip_semantics")',
           "remedy's declaration also names the reflection rule, which its rows sweep themselves"),
    Mutant("src/bctsim/harness.py", "config.coin_mode, visibility=v,", "config.coin_mode, visibility=None,",
           "the visibility experiment's rows are sampled without erasure"),
    Mutant("src/bctsim/geometry.py", "((GAMMA_OFFSETS[1], TWO_PI),", "((GAMMA_OFFSETS[1], 0.0),",
           "the crossing search reads gamma's wrapped bound s - 2*pi as s"),
    Mutant("src/bctsim/geometry.py", '"gamma": GAMMA_OFFSETS}', '"gamma": BETA_OFFSETS}',
           "a gamma separator's offset is read from the beta system's offsets"),
    Mutant("src/bctsim/protocol.py", "_SLACK = ACCEPTANCE_COEFF * (THETA_SPAN / (2 * _BINS))",
           "_SLACK = ACCEPTANCE_COEFF * (THETA_SPAN / (8 * _BINS))",
           "a cross-slot bracket reaches a quarter of the way from a bin's centre to its ends"),
    Mutant("src/bctsim/harness.py", "[COIN_1 if shared else COIN_1 + j for j", "[COIN_1 for j",
           "the second axis's independent coin is keyed as the first's, draw 2 instead of 3"),
    Mutant("src/bctsim/harness.py", "_BLOCK = 16 * _CHUNK", "_BLOCK = 16 * _CHUNK + 1",
           "a block size that is not a multiple of 32 starts the next block's sign draw on a fresh 32-bit half"),
)


def _first_failure(output: str) -> str:
    """The node id on pytest's first ``FAILED`` or ``ERROR`` summary line, else the output's last line."""
    lines = output.splitlines()
    for line in lines:
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    last = [line for line in lines if line.strip()]
    return f"no FAILED line; the output ends with {last[-1] if last else 'nothing'!r}"


def _run(mutant: Mutant | None) -> tuple[str | None, float]:
    """Tier-1 on a fresh copy of the repository with ``mutant`` applied, if any.

    Returns the first failing test (None when the suite passes) and the suite's time.
    """
    with tempfile.TemporaryDirectory(prefix="bctsim-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info"))
        if mutant is not None:
            target = copy / mutant.path
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.path}: the text of mutant {mutant.why!r} occurs {text.count(mutant.old)} "
                                 f"times, not once")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import bctsim; print(bctsim.__file__)"], cwd=copy, env=env,
                               capture_output=True, text=True, check=True).stdout.strip()
        if not Path(where).resolve().is_relative_to(copy.resolve()):
            raise SystemExit(f"the suite would import bctsim from {where}, not from the copy")
        start = time.perf_counter()
        done = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
        return (_first_failure(done.stdout + done.stderr) if done.returncode != 0 else None), seconds


def main(words: list[str]) -> int:
    """Check the unmutated copy, then run every mutant whose ``why`` contains one of ``words``, or all without words."""
    mutants = [m for m in MUTANTS if not words or any(word in m.why for word in words)]
    if not mutants:
        print(f"no mutant's description contains any of {words}")
        return 1
    failure, seconds = _run(None)
    print(f"unmutated copy: Tier-1 {'FAILS' if failure else 'passes'} in {seconds:.1f} s", flush=True)
    if failure:
        print(f"    first failure: {failure}")
        return 1
    wrong = 0
    for mutant in mutants:
        failure, seconds = _run(mutant)
        killed, expected = failure is not None, mutant.equivalent is None
        wrong += killed != expected
        note = "" if expected else f" (listed as equivalent: {mutant.equivalent})"
        print(f"{'killed' if killed else 'survived'} in {seconds:.1f} s{'' if killed == expected else ' -- WRONG'}: "
              f"{mutant.path}: {mutant.why}{note}", flush=True)
        if killed:
            print(f"    first failure: {failure}", flush=True)
    print(f"{len(mutants)} mutants, {wrong} with the wrong verdict")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
