"""Mutation check of the test suite: each mutant is one small edit to the
package that the tests must notice.

Every mutant is applied to a fresh copy of the repository in a temporary
directory, and ``python -m pytest -x -q`` runs there. A mutant is killed
when the suite fails (or runs past its time limit) and survives when it
passes. The unmutated copy runs first: a suite that already fails shows
nothing about mutants.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants only

Exits 1 when a mutant expected to be killed survives, or an equivalent one
is killed (its reason is then out of date), and 2 when a mutant no longer
applies to the source or the baseline suite fails. Standard library only;
the file is not named ``test_*.py``, so the suite does not collect it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# What the suite reads: the package, the tests and their data, the configs.
COPIED = ("src", "tests", "configs", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache", ".hypothesis")
TIME_LIMIT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/dualcrit
    old: str  # must occur exactly once in the file
    new: str
    why: str  # the fault it stands for
    equivalent: str | None = None  # why no test can kill it, if none can


MUTANTS = [
    # The input rules in distributions, and the float conversion they share.
    Mutant("positive-drops-isfinite", "distributions.py",
           "if not (math.isfinite(value) and value > 0.0):", "if not value > 0.0:",
           "an infinite input passes the positive-and-finite rule"),
    Mutant("positive-admits-zero", "distributions.py",
           "math.isfinite(value) and value > 0.0", "math.isfinite(value) and value >= 0.0",
           "zero passes the positive-and-finite rule"),
    Mutant("integer-drops-most", "distributions.py",
           "if not 0 <= value <= most or", "if not 0 <= value < most or",
           "the top of an integer range is refused"),
    Mutant("integer-drops-whole", "distributions.py",
           "if not 0 <= value <= most or value != int(value):", "if not 0 <= value <= most:",
           "a fractional count passes and is truncated"),
    Mutant("scalar-overflow-raises", "distributions.py",
           "        except OverflowError:\n            return math.inf if value > 0 else -math.inf\n", "",
           "an integer past the float range raises OverflowError, not a ValueError naming it"),
    Mutant("scalar-accepts-text", "distributions.py",
           "_NOT_NUMBERS = (str, bytes, bytearray, bool)", "_NOT_NUMBERS = (bool,)",
           "float() parses '2' as a number, which the design then stores as text"),
    Mutant("scalar-accepts-bool", "distributions.py",
           "_NOT_NUMBERS = (str, bytes, bytearray, bool)", "_NOT_NUMBERS = (str, bytes, bytearray)",
           "True passes as the number 1: a one-trial design, or sigma 1"),
    Mutant("count-accepts-text", "distributions.py",
           "    _scalar(value, name)\n    if not least", "    if not least",
           "a count given as text fails an int comparison without naming the input"),
    Mutant("integer-accepts-text", "distributions.py",
           "    _scalar(value, name)\n    if not 0 <= value", "    if not 0 <= value",
           "a responder count or a seed given as a list fails a comparison without naming the input"),
    Mutant("sig-prob-accepts-text", "binary.py",
           '    sig_prob = _scalar(sig_prob, "sig_prob")\n', "",
           "sig_prob given as text fails a comparison without naming the input"),
    Mutant("events-accepts-text", "tte.py",
           '    _scalar(n_events, "n_events")\n', "",
           "a real-valued event count given as text fails a comparison without naming the input"),
    Mutant("three-outcome-relates-first", "three_outcome.py",
           '        check_count(self.r_nogo, "r_nogo", least=0)\n        check_count(self.r_go, "r_go")\n'
           "        if not self.r_nogo < self.r_go <= self.n:\n            raise ValueError(\n"
           '                f"boundaries must satisfy 0 <= r_nogo < r_go <= n, got "\n'
           '                f"r_nogo={self.r_nogo}, r_go={self.r_go}, n={self.n}"\n            )\n',
           "        if not 0 <= self.r_nogo < self.r_go <= self.n:\n            raise ValueError(\n"
           '                f"boundaries must satisfy 0 <= r_nogo < r_go <= n, got "\n'
           '                f"r_nogo={self.r_nogo}, r_go={self.r_go}, n={self.n}"\n            )\n'
           '        check_count(self.r_nogo, "r_nogo", least=0)\n        check_count(self.r_go, "r_go")\n',
           "the boundaries are compared before each is checked, so text fails without naming them"),
    Mutant("cut-rule-skips-n", "outcomes.py",
           '        if self.n is not None:\n            distributions.check_count(self.n, "n")\n', "",
           "a cut rule's n given as text fails a sum, and True passes as one trial"),
    # Inclusive criteria become strict.
    Mutant("significant-strict", "binary.py",
           "beta_cdf(_posterior(prior, n, r), null_orr) >= sig_prob",
           "beta_cdf(_posterior(prior, n, r), null_orr) > sig_prob",
           "a posterior probability equal to sig_prob is not significant"),
    Mutant("relevant-strict", "binary.py",
           "beta_cdf(_posterior(prior, n, r), decision_orr) <= 0.5",
           "beta_cdf(_posterior(prior, n, r), decision_orr) < 0.5",
           "a posterior median equal to decision_orr is not relevant"),
    Mutant("criteria-significant-strict", "tte.py",
           "estimated_hr <= self.significance_threshold,", "estimated_hr < self.significance_threshold,",
           "an estimate at the significance threshold is not significant"),
    Mutant("criteria-relevant-strict", "tte.py",
           "estimated_hr <= self.decision_hr", "estimated_hr < self.decision_hr",
           "an estimate at the decision value is not relevant"),
    # Cut points and tails.
    Mutant("three-outcome-go-cut-plus-one", "three_outcome.py",
           "CutRule(self.r_nogo + 1, self.r_go, n=self.n)", "CutRule(self.r_nogo + 1, self.r_go + 1, n=self.n)",
           "the analytic GO cut sits one responder above r_go"),
    Mutant("binary-nogo-cut-minus-one", "binary.py",
           "CutRule(min(stat, clin), max(stat, clin), n=self.n)",
           "CutRule(max(min(stat, clin) - 1, 0), max(stat, clin), n=self.n)",
           "the analytic NO-GO cut sits one responder below the lower boundary"),
    Mutant("cut-range-drops-n-plus-one", "outcomes.py",
           'f"cut {name}", self.n + 1)', 'f"cut {name}", self.n)',
           "an unreachable boundary, n + 1, is refused as a cut"),
    Mutant("oc-swaps-responder-tails", "outcomes.py",
           "upper, lower = responder_tails(self.n, true_effect)",
           "lower, upper = responder_tails(self.n, true_effect)",
           "GO and NO-GO read each other's binomial tail"),
    Mutant("feasible-pairs-swaps-tails", "three_outcome.py",
           "go0, nogo0 = responder_tails(n, p0)", "nogo0, go0 = responder_tails(n, p0)",
           "the three-outcome search reads the wrong tail under p0"),
    # The oracle's streams and counts.
    Mutant("philox-drops-scenario", "oracle.py",
           "[seed, (scenario << 32) | chunk]", "[seed, chunk]",
           "every scenario draws the same streams"),
    Mutant("philox-drops-chunk", "oracle.py",
           "[seed, (scenario << 32) | chunk]", "[seed, scenario << 32]",
           "every chunk of a scenario draws the same stream"),
    Mutant("binary-tally-off-by-one", "oracle.py",
           "tally[codes[-1]] += size - taken", "tally[codes[-1]] += size - taken - 1",
           "each chunk loses one replicate from its last run of counts"),
    # Config and CLI.
    Mutant("caption-drops-sigma", "config.py",
           '("alpha", "null_hr", "decision_hr", "sigma", "n_events")', '("alpha", "null_hr", "decision_hr", "n_events")',
           "the TTE dual caption leaves out sigma"),
    Mutant("format-beta-swapped", "config.py",
           "Beta({_format_value(value.a)}, {_format_value(value.b)})",
           "Beta({_format_value(value.b)}, {_format_value(value.a)})",
           "a caption shows a prior's shapes the wrong way round"),
    Mutant("config-reads-unread-keys", "config.py",
           "    if unread:\n", "    if False:\n",
           "a key the design does not read is silently ignored"),
    Mutant("config-keeps-byte-order-mark", "config.py",
           'encoding="utf-8-sig"', 'encoding="utf-8"',
           "a byte-order mark hides the first line's comment or joins its key"),
    Mutant("exit-ok", "cli.py", "EXIT_OK = 0", "EXIT_OK = 1", "a successful command exits 1"),
    Mutant("exit-config-error", "cli.py", "EXIT_CONFIG_ERROR = 2", "EXIT_CONFIG_ERROR = 1",
           "a config error exits 1"),
    Mutant("exit-infeasible", "cli.py", "EXIT_INFEASIBLE = 3", "EXIT_INFEASIBLE = 2",
           "an infeasible design exits as a config error"),
    Mutant("exit-verify-failed", "cli.py", "EXIT_VERIFY_FAILED = 4", "EXIT_VERIFY_FAILED = 1",
           "a failed verification exits 1"),
    Mutant("exit-broken-pipe", "cli.py", "EXIT_BROKEN_PIPE = 128 + 13", "EXIT_BROKEN_PIPE = 1",
           "a closed reader exits 1, not as SIGPIPE would"),
]


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=IGNORED)
        else:
            shutil.copy2(src, dest / name)


def _env(copy: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")


def _imports_its_own_package(copy: Path) -> bool:
    """The copy's package, not an installed one, is the one imported."""
    out = subprocess.run(
        [sys.executable, "-c", "import dualcrit; print(dualcrit.__file__)"],
        cwd=copy, env=_env(copy), capture_output=True, text=True, check=True,
    ).stdout.strip()
    return Path(out).resolve().is_relative_to(copy.resolve())


def _suite_passes(copy: Path) -> bool:
    """True when ``pytest -x -q`` passes in ``copy``; past the limit it fails."""
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q"],
            cwd=copy, env=_env(copy), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIME_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def _mutated(mutant: Mutant) -> str | None:
    """The mutant's file with its edit made, or None if the edit no longer applies."""
    text = (ROOT / "src" / "dualcrit" / mutant.path).read_text()
    return text.replace(mutant.old, mutant.new) if text.count(mutant.old) == 1 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or MUTANTS
    texts = {m.name: _mutated(m) for m in chosen}
    stale = [m.name for m in chosen if texts[m.name] is None]
    if stale:
        print(f"mutant(s) whose text does not occur exactly once: {', '.join(stale)}")
        return 2
    with tempfile.TemporaryDirectory(prefix="dualcrit-mutants-") as tmp:
        baseline = Path(tmp) / "baseline"
        _copy(baseline)
        if not _imports_its_own_package(baseline):
            print("the copy imports an installed dualcrit, not its own src")
            return 2
        if not _suite_passes(baseline):
            print("the unmutated suite fails; no mutant can be judged")
            return 2
        shutil.rmtree(baseline)
        unexpected = []
        for m in chosen:
            copy = Path(tmp) / m.name
            _copy(copy)
            (copy / "src" / "dualcrit" / m.path).write_text(texts[m.name])
            start = time.monotonic()
            killed = not _suite_passes(copy)
            shutil.rmtree(copy)
            status = "killed" if killed else "SURVIVED"
            if killed == bool(m.equivalent):
                unexpected.append(m.name)
                status += " (unexpected)"
            print(f"{status:22} {m.name:34} {time.monotonic() - start:6.1f} s  {m.why}", flush=True)
    print(f"{len(chosen)} mutants, {len(unexpected)} unexpected" + (f": {', '.join(unexpected)}" if unexpected else ""))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
