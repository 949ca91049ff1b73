"""Shared shape of the three workloads.

A workload builds ``rounds`` (a list of rounds, each a list of operations)
from its seed in ``setup``; every round has the same make-up of operation
kinds, so a run that attempts whole rounds always runs the same mix.
``run`` performs one operation through dualcrit's public functions and
returns its outputs; ``check`` compares the outputs with values computed
apart from the program, after the timed region.
"""

from __future__ import annotations

import os
import random
import resource
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"


def child_env() -> dict:
    """Environment for a child interpreter that imports dualcrit from src/."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of k equal slices of [lo, hi], shuffled:
    a round's values then cover the whole range whatever the seed."""
    values = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(values)
    return values


class Workload:
    rss_who = resource.RUSAGE_SELF

    def __init__(self, dc, seed: int, work):
        self.dc = dc
        self.work = work
        self.rng = random.Random(seed)
        self.rounds: list[list] = []
        self._tracer = None

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run one operation of each kind once, untimed."""
        seen = set()
        for op in self.rounds[0]:
            if op.kind not in seen:
                seen.add(op.kind)
                self.run(op)

    def run(self, op):
        raise NotImplementedError

    def run_traced(self, op, index: int):
        """Run ``op`` with the tracer installed; return its output and its
        spans, whose parent indices point into that list."""
        from tracer import Tracer

        if self._tracer is None:
            self._tracer = Tracer(self.dc)
        tracer = self._tracer
        tracer.spans.clear()
        tracer.install()
        try:
            with tracer.root(index):
                out = self.run(op)
        finally:
            tracer.uninstall()
        return out, [list(span) for span in tracer.spans]

    def check(self, results, checks) -> None:
        raise NotImplementedError
