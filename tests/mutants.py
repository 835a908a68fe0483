"""Committed mutants of the public record's rule site.

Each mutant drops one rule from ``Transcript.admit`` by an exact text edit.
For each one, this script copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory, applies the edit there and runs the named tests
with ``-x``. It fails if a mutant's tests all pass, since the suite then
cannot tell the rule is gone, or if a mutant's old text is no longer in its
file exactly once, so a refactor of the rule site must update this list.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

It uses the standard library only, and its name keeps pytest from
collecting it.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROTOCOL = "src/entpost/protocol.py"
# the oracle-backed differential test: the record read a slice at a time
# against the per-line reader of tests/oracle.py, over every rule break
DIFFERENTIAL = "tests/test_protocol.py::test_runs_read_as_the_per_line_path_reads"

# (file, exact old text, new text, test node ids)
MUTANTS = [
    (  # the closed rule: reveals after the terminal line
        PROTOCOL,
        '(self.terminal is not None, lambda i: "transcript already closed by a terminal record")',
        '(False, lambda i: "transcript already closed by a terminal record")',
        [DIFFERENTIAL, "tests/test_protocol.py::test_transcript_closes_once"],
    ),
    (  # the round rule: rounds rise by one
        PROTOCOL,
        "(numbers[0] != np.arange(start, start + size), ",
        "(numbers[0] != numbers[0], ",
        [DIFFERENTIAL, "tests/test_protocol.py::test_transcript_round_numbers_must_be_sequential"],
    ),
    (  # the range rule: positions in 1..n
        PROTOCOL,
        "((numbers[1] < 1) | (numbers[1] > self.n),",
        "(False,",
        [DIFFERENTIAL,
         "tests/test_protocol.py::test_reveal_positions_are_checked_before_any_size_n_work"],
    ),
    (  # a (party, position) key repeated within the run
        PROTOCOL,
        "repeated = np.ones(size, dtype=bool)",
        "repeated = np.zeros(size, dtype=bool)",
        [DIFFERENTIAL, "tests/test_protocol.py::test_transcript_rejects_duplicate_positions"],
    ),
    (  # a (party, position) key admitted earlier
        PROTOCOL,
        "repeated |= np.fromiter(map(self._seen.__contains__, keys), bool, size)",
        "pass",
        [DIFFERENTIAL, "tests/test_protocol.py::test_replay_rejects_duplicate_reveals"],
    ),
]


def run_mutant(path: str, old: str, new: str, tests: list[str]) -> str | None:
    """Why the mutant shows a gap in the suite, or None if its tests fail."""
    source = (ROOT / path).read_text(encoding="utf-8")
    if source.count(old) != 1:
        return f"its old text is in {path} {source.count(old)} times, not once: {old!r}"
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / path).write_text(source.replace(old, new), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    if result.returncode == 0:
        return "its tests pass"
    if result.returncode != 1:  # 1 is failed tests; anything else is a broken run
        return f"pytest exited {result.returncode}:\n{result.stdout[-2000:]}"
    return None


def main() -> int:
    survivors = 0
    for path, old, new, tests in MUTANTS:
        gap = run_mutant(path, old, new, tests)
        print(f"{'SURVIVED' if gap else 'killed'}: {old!r} -> {new!r}{f': {gap}' if gap else ''}")
        survivors += gap is not None
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
