"""Committed mutants of the public record's rule site, the decode and the
noise draw.

Each mutant breaks one rule by an exact text edit: a record rule of
``Transcript.admit``, a site of the block decode, or the noise draw. For
each one, this script copies ``src/``, ``tests/`` and ``pyproject.toml`` to
a temporary directory, applies the edit there and runs the named tests with
``-x``. It fails if a mutant's tests all pass, since the suite then cannot
tell the rule is broken, or if a mutant's old text is no longer in its file
exactly once, so a refactor of a mutated site must update this list. The
named tests must read nothing outside the copy.

The copy also gets a ``tests/conftest.py`` that loads a hypothesis profile
without the shrink phase, so a property test that a mutant fails stops at
its first failing example instead of shrinking it. Shrinking runs only
after a test has failed, so it decides no kill, but it took most of the
run: on 2 vCPUs the script took 3 min 23 s with it and 31 to 45 s
without. So the CI step that runs this script runs without shrinking; the
suite's own settings in the repository do not change.

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
# the block decode against tests/oracle.py's per-view decode, over partial
# views, three books (one listed out of bit-pair order) and every rule, and
# the rank kernel against union-find
DECODE_ORACLE = "tests/test_protocol.py::test_block_decode_equals_the_per_trial_oracle"

# written into the copy only: generate examples, never shrink a failing one
CONFTEST = """from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("mutants")
"""

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
    (  # the rank kernel: a cycle of length L caps its passed checks at L - 1
        PROTOCOL,
        "return -np.minimum(hits, excess).sum(axis=1)",
        "return -np.minimum(hits, excess + 1).sum(axis=1)",
        [DECODE_ORACLE,
         "tests/test_protocol.py::test_survival_rank_matches_constraint_graph_oracle"],
    ),
    (  # the cycle labels: pointer doubling, not one step at a time
        "src/entpost/codebook.py",
        "label, step = np.minimum(label, label[step]), step[step]",
        "label, step = np.minimum(label, label[step]), step",
        ["tests/test_codebook.py::test_effective_distance_agrees_with_brute_force_oracle",
         DECODE_ORACLE],
    ),
    (  # the check fold: a private value completes no check, so passes none
        PROTOCOL,
        "return product != 0, product < 0",
        "return product != 0, product <= 0",
        [DECODE_ORACLE,
         "tests/test_protocol.py::test_first_decode_answers_for_every_prefix_of_the_arrivals"],
    ),
    (  # the violation count: every completed check that did not pass
        PROTOCOL,
        "violations = checks - passed.sum(axis=-1)",
        "violations = checks - passed[..., 1:].sum(axis=-1)",
        [DECODE_ORACLE,
         "tests/test_protocol.py::test_truth_entry_survives_every_noiseless_session"],
    ),
    (  # the memo's index: a repeated key points at its own first result
        PROTOCOL,
        "which.append(index)",
        "which.append(len(results) - 1)",
        ["tests/test_montecarlo.py::test_the_decode_and_terminal_rules_run_once_per_key",
         DECODE_ORACLE],
    ),
    (  # the soundness gather: survival cells in bit-pair order, not book order
        "src/entpost/montecarlo.py",
        "survived[:] = alive[:, list(cb.bit_pair_order)]",
        "survived[:] = alive",
        ["tests/test_montecarlo.py::test_entry_order_of_the_book_never_changes_soundness_rows"],
    ),
    (  # the lead pick: a place in bit-pair order is not an entry index
        PROTOCOL,
        "cands, refs = order[places], order[first[rows]]",
        "cands, refs = order[places], first[rows]",
        [DECODE_ORACLE, "tests/test_protocol.py::"
         "test_the_order_a_book_lists_its_entries_in_never_changes_a_decode"],
    ),
    (  # the candidate clear: the lead ranks 0 against itself, so ranking it
        # changes no result, only builds the cycles of each (lead, lead) pair
        PROTOCOL,
        "live[np.arange(len(live)), first] = False",
        "pass",
        ["tests/test_codebook.py::test_a_book_measures_each_pair_once"],
    ),
    (  # the noise draw: each delivered outcome flips with chance eps, not 0.8 eps
        "src/entpost/epr.py",
        "(words >> np.uint64(11)) * 2.0**-53 < p",
        "(words >> np.uint64(11)) * 2.0**-53 < 0.8 * p",
        ["tests/test_noise_law.py::test_runs_abort_at_the_noisy_abort_law",
         "tests/test_noise_law.py::test_the_true_entry_dies_at_the_noisy_abort_law"],
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
        (copy / "tests" / "conftest.py").write_text(CONFTEST, encoding="utf-8")
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
