"""The one boundary search, against a linear scan of every small case."""

import math

from dualcrit.outcomes import first_true


def test_first_true_matches_a_linear_scan_and_probes_only_its_range():
    for lo in range(4):
        for hi in range(lo - 1, 40):
            for threshold in range(lo - 1, hi + 3):
                probes = []

                def holds(r):
                    probes.append(r)
                    return r >= threshold

                want = next((r for r in range(lo, hi + 1) if r >= threshold), hi + 1)
                assert first_true(holds, lo, hi) == want
                assert all(lo <= r <= hi for r in probes)
                assert len(probes) == len(set(probes))
                # One call for an answer at lo, two at lo + 1, O(log) beyond.
                distance = want - lo
                assert len(probes) <= (distance + 1 if distance < 2 else 2 * math.log2(distance) + 2)
