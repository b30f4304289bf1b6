#!/usr/bin/env python3
"""Sweep seeded dichotomy families and tabulate how the verdicts split.

Usage: python scripts/dichotomy_experiment.py [count] [seed]

For each family the ratio series either stay on a constant root of unity
(verdict: parallel infinitesimal weights) or some index produces a finite
per-root-of-unity solution bound (verdict: sparsity certificate), unless the
precision cannot decide that index (verdict: undetermined).  Families are
built half-and-half by the builder of the weights-dichotomy-corpus builtin,
so the tabulation doubles as a calibration check.
"""

import random
import sys
from collections import Counter
from pathlib import Path

# Import galdesk from this checkout's src/, installed or not.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from galdesk import padic_weights as pw  # noqa: E402
from galdesk.scenarios import dichotomy_family  # noqa: E402


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    rng = random.Random(seed)
    outcomes = Counter()
    degree_hist = Counter()
    for trial in range(count):
        verdict = pw.passage_dichotomy(dichotomy_family(rng, perturbed=trial % 2 == 1))
        if isinstance(verdict, pw.ParallelWeights):
            outcomes["parallel"] += 1
        elif isinstance(verdict, pw.Undetermined):
            outcomes["undetermined"] += 1
        else:
            outcomes["certificate"] += 1
            degree_hist[verdict.degree] += 1
    print(f"families: {count} (seed {seed})")
    for name, n in sorted(outcomes.items()):
        print(f"  {name}: {n}")
    if degree_hist:
        print("witness Weierstrass degrees:")
        for deg, n in sorted(degree_hist.items()):
            print(f"  degree {deg}: {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
