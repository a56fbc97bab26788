#!/usr/bin/env python3
"""A walk through the inner map phi.

phi reads a number in [0, 2) digit by digit in base gamma and pays a
positive weight for each digit: 1/2 for the first symbol, 1/(2(gamma-1))
for the rest.  That makes it strictly increasing, continuous, and cheap to
evaluate to any depth, and every truncation comes with the exact width of
the remaining window.

Run: python3 demos/01_inner_function.py
"""

import math
from fractions import Fraction

from ksnet import default_inner_spec, phi_eval, verify_inner

spec = default_inner_spec(6)

print("digit weights  :", [str(w) for w in spec.weights])
print("cumulative cost:", [str(c) for c in spec.cumulative])
print()

x = Fraction(1, 10)
print(f"x = {x}, base-6 digits {tuple(int(x * 6**k) % 6 for k in range(1, 9))}...")
print(f"{'depth':>5}  {'phi(x) truncation':>24}  {'window width':>14}")
for depth in (1, 2, 4, 8, 16, 32):
    value, bound = phi_eval(spec, x, depth)
    print(f"{depth:>5}  {str(value):>24}  {float(bound):>14.3e}")
print(f"the windows close in on 7/18 = {float(Fraction(7, 18)):.12f}")
print()

# Two digits read each of these inputs in full; the digits after them are
# zeros, which add nothing, so the depth-2 truncation is the exact value.
print("terminating inputs evaluate exactly:")
for x in (Fraction(0), Fraction(1, 36), Fraction(1, 6), Fraction(5, 6), Fraction(1)):
    print(f"  phi({str(x):>4}) = {phi_eval(spec, x, 2)[0]}")
print("and the map commutes with +1:")
print(f"  phi(1/6 + 1) = {phi_eval(spec, Fraction(7, 6), 2)[0]} = phi(1/6) + 1")
print()

alpha = math.log(2) / math.log(6)
print(f"smoothness: |phi(x) - phi(y)| <= 4 |x - y|^{alpha:.4f}")
report = verify_inner(spec, samples=2000, depth=30, seed=0)
for check in report["checks"]:
    print(f"  {check['name']:>8}: {check['detail']}")
