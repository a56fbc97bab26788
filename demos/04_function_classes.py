#!/usr/bin/env python3
"""What different target classes do to the outer tables.

A continuous target yields gently varying knot values.  A jump
discontinuity cannot hide: spread over 2d+1 branches, some branch keeps an
adjacent-knot jump of at least jump/(2d+1).  A near-singular target pushes
knot magnitudes up to at least max|f|/(2d+1).  merge_report makes those
figures visible per fit.

Run: python3 demos/04_function_classes.py
"""

import random
from fractions import Fraction

from ksnet import SampleSet, default_inner_spec, fit_exact, make_params, merge_report

params = make_params(2, 6)
spec = default_inner_spec(6)

rng = random.Random(5)
points = sorted(
    {tuple(Fraction(rng.getrandbits(50), 2**50) for _ in range(2)) for _ in range(200)}
)

targets = {
    "smooth product x1*x2": lambda p: p[0] * p[1],
    "indicator [x1 < 1/2]": lambda p: Fraction(1) if p[0] < Fraction(1, 2) else Fraction(0),
    "spike 1/(x1+x2+1e-3)": lambda p: 1 / (p[0] + p[1] + Fraction(1, 1000)),
}

print(f"{'target':<22} {'residual':>8} {'knots':>6} {'max |g|':>10} {'max jump':>10} {'min spacing':>12}")
for name, f in targets.items():
    samples = SampleSet(points=tuple(points), targets=tuple(f(p) for p in points))
    outer, fit_rep = fit_exact(samples, params, spec)
    stats = merge_report(outer)
    print(
        f"{name:<22} {str(fit_rep.residual_max):>8} {stats['total_knots']:>6} "
        f"{float(Fraction(stats['max_abs_value'])):>10.3f} {float(Fraction(stats['max_jump'])):>10.4f} "
        f"{float(Fraction(stats['min_spacing'])):>12.2e}"
    )

print()
print("all three fit with residual exactly 0; the class shows up in the")
print("table statistics, not in the residual: the indicator keeps a jump")
print(">= 1/5, the spike inflates knot magnitudes to >= max|f|/5.")
