#!/usr/bin/env python3
"""Sweep seeded dichotomy families and tabulate how the verdicts split.

Usage: python scripts/dichotomy_experiment.py [count] [seed]

For each family the ratio series either stay on a constant root of unity
(verdict: parallel infinitesimal weights) or some index produces a finite
per-root-of-unity solution bound (verdict: sparsity certificate), unless the
precision cannot decide that index (verdict: undetermined).  Families are
built half-and-half, so the tabulation doubles as a calibration check.
"""

import random
import sys
from collections import Counter
from pathlib import Path

# Import galdesk from this checkout's src/, installed or not.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from galdesk import padics as pa  # noqa: E402
from galdesk import padic_weights as pw  # noqa: E402
from galdesk import root_datum as rdm  # noqa: E402


def unit_series(rng, p, nvars, prec, cap):
    terms = {tuple(0 for _ in range(nvars)): pa.PadicInt(p, rng.randrange(1, p), prec)}
    for i in range(nvars):
        idx = tuple(int(k == i) for k in range(nvars))
        terms[idx] = pa.PadicInt(p, rng.randrange(0, p * p), prec)
    return pw.TruncatedSeries(p, nvars, prec, cap, terms)


def build_family(rng, perturb: bool):
    p, prec = 5, 8
    d = rng.choice([1, 2])
    nvars = rng.randrange(1, 5)
    cap = rng.randrange(2, 7)
    mw0 = rdm.longest_element(rdm.build_root_datum([("A", d)]))[1] if d > 1 else [0]
    entries = []
    for i in range(d):
        base = unit_series(rng, p, nvars, prec, cap)
        zeta = pa.teichmuller(rng.randrange(1, p), p, prec)
        entries.append(pw.DichotomyEntry("w0", i, 0, base.scale(zeta), base))
    fam = pw.DichotomyFamily(p, d, 1, tuple(mw0), entries)
    if perturb:
        e = fam.entries[rng.randrange(len(fam.entries))]
        var = rng.randrange(nvars)
        bump = tuple(int(k == var) for k in range(nvars))
        e.f_w = e.f_w * pw.TruncatedSeries(p, nvars, prec, cap, {
            tuple(0 for _ in range(nvars)): pa.PadicInt.one(p, prec),
            bump: pa.PadicInt(p, rng.randrange(1, p), prec),
        })
    return fam


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    rng = random.Random(seed)
    outcomes = Counter()
    degree_hist = Counter()
    for trial in range(count):
        fam = build_family(rng, perturb=trial % 2 == 1)
        verdict = pw.passage_dichotomy(fam)
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
