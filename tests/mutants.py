"""Mutation catalogue: faults put into the package on purpose, each of which the Tier-1 suite must catch.

Each :class:`Mutant` names a file, a text that occurs in it exactly once, the
text that replaces it, and what the fault breaks. ``python tests/mutants.py``,
from any directory, copies the repository (without ``.git``) to a temporary
directory, checks that the unmutated copy passes Tier-1, and then, for each
mutant, applies it to a fresh copy and runs Tier-1 there with ``-x``. The
mutant is killed when the suite fails. The run fails, with exit status 1, if a
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
    Mutant("src/bctsim/harness.py", "(theta >= lo) & (theta <= hi)", "(theta >= lo) & (theta < hi)",
           "the window tally leaves out theta at the upper end of window two"),
    Mutant("src/bctsim/protocol.py", "return s, (a - (s - bb)) + (b - bb)", "return s, 0.0",
           "TwoSum loses its error term, so a table edge can be one float off"),
    Mutant("src/bctsim/protocol.py", "_sign(math.sin(f - (lo + hi) / 2.0))", "_sign(math.sin(f - lo))",
           "the exact expectation reads the sine's sign at a segment's start, where it may vanish"),
    Mutant("src/bctsim/protocol.py", "if self.negate[0] != self.negate[1]:", "if False:",
           "the exact expectation ignores opposite negations of its two axes"),
    Mutant("src/bctsim/analysis.py", "enumerate(zip(table.constant, table.negate))",
           "enumerate(zip(table.constant, table.negate[:1] * 2))",
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
    Mutant("src/bctsim/analysis.py", "_FRAME_AXES = (WALKTHROUGH_B1, WALKTHROUGH_B1 + math.pi)",
           "_FRAME_AXES = (WALKTHROUGH_B1, WALKTHROUGH_B1 - math.pi)",
           "the frame's second axis is spelled b1 - pi",
           equivalent="every caller normalizes Bob's axis at entry, and -pi normalizes to pi exactly"),
)


def _run(mutant: Mutant | None) -> tuple[bool, float]:
    """Tier-1 on a fresh copy of the repository with ``mutant`` applied, if any: whether it failed, and in what time."""
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
        done = subprocess.run(TIER1, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return done.returncode != 0, time.perf_counter() - start


def main() -> int:
    failed, seconds = _run(None)
    print(f"unmutated copy: Tier-1 {'FAILS' if failed else 'passes'} in {seconds:.1f} s", flush=True)
    if failed:
        return 1
    wrong = 0
    for mutant in MUTANTS:
        killed, seconds = _run(mutant)
        expected = mutant.equivalent is None
        wrong += killed != expected
        note = "" if expected else f" (listed as equivalent: {mutant.equivalent})"
        print(f"{'killed' if killed else 'survived'} in {seconds:.1f} s{'' if killed == expected else ' -- WRONG'}: "
              f"{mutant.path}: {mutant.why}{note}", flush=True)
    print(f"{len(MUTANTS)} mutants, {wrong} with the wrong verdict")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
