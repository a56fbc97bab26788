#!/usr/bin/env python3
"""Damped iteration on a regular grid, then an exact finish.

Instead of solving the interpolation system directly, fit_iterative spreads
damping * residual / (2d+1) onto every knot a sample point touches, round
after round; grid_samples lays a target out on the grid.  On a grid where no knots are shared the residual scales by
exactly (1 - damping) per round; finalize=True then swaps in the exact
minimum-norm solve so the final residual is exactly zero.

Run: python3 demos/05_iterative.py
"""

from fractions import Fraction

from ksnet import default_inner_spec, fit_iterative, grid_samples, make_params

params = make_params(2, 6)
spec = default_inner_spec(6)
samples = grid_samples(lambda p: p[0] + p[1], params, 1)

for damping in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
    outer, report = fit_iterative(
        samples, params, spec, damping=damping,
        tolerance=Fraction(1, 10**6), finalize=False,
    )
    head = ", ".join(f"{h:.4f}" for h in report.convergence_history[:6])
    print(f"damping {str(damping):>3}: {report.iterations:>3} rounds to 1e-6, "
          f"history {head}, ...")

print()
outer, report = fit_iterative(samples, params, spec, damping=Fraction(1, 2))
print(f"with finalize=True the exact solve takes over after the iteration:")
print(f"  residual_max = {report.residual_max} (exact), knots = {report.knot_count}, "
      f"collisions = {report.collision_count}")
