#!/usr/bin/env python3
"""Diffusion coefficients from the transfer-operator spectrum.

Over a consistent partition the transfer operator reduces to finitely
many matrices p_j; the leading eigenvalue z(t) of P(t) = sum p_j e^(ijt)
carries the transport coefficients: drift = Im z'(0) and
D = -Re (ln z)''(0)/2 = lim Var(x_n)/(2n), the spread about the mean,
and the t = 0 eigenvector is the stationary cell density.
"""

import numpy as np

from detdiff import (
    CASES,
    MarkovPartition,
    build_transition_matrices,
    characteristic_matrix,
    closed_form_d,
    diffusion_spectral,
    heuristic_d,
    leading_eigenvalue,
    linear_map,
    omega_approx_d,
)

# --- the nine reference slopes ----------------------------------------

print(f"{'case':18} {'lam':>9} {'D spectral':>12} {'D exact':>12} {'delta':>9}")
for name, case in CASES.items():
    tset = build_transition_matrices(case.lift_map(), case.partition())
    rep = diffusion_spectral(tset)
    print(f"{name:18} {case.lam:>9.5f} {rep.d:>12.9f} {case.d:>12.9f} "
          f"{abs(rep.d - case.d):>9.1e}")

# --- stationary densities modulate the Gaussian limit ------------------

case = CASES["two-plus-sqrt3"]
tset = build_transition_matrices(case.lift_map(), case.partition())
rep = diffusion_spectral(tset)
print("\nstationary cell densities for lam = 2 + sqrt(3):")
for (lo, hi), a in zip(zip(tset.breakpoints, tset.breakpoints[1:]), rep.alpha):
    print(f"  [{lo:+.5f}, {hi:+.5f}): alpha = {a:.6f}")
print("mass over one period:", float(rep.alpha @ tset.cell_lengths))

# --- the eigenvalue curve itself ---------------------------------------

print("\nleading eigenvalue z(t) vs the closed form for lam = 2 + sqrt(3):")
for t in (0.0, 0.4, 0.8, 1.2):
    z = leading_eigenvalue(characteristic_matrix(tset, t))
    c = np.cos(t)
    ref = (1 + c + np.sqrt(c * c + 2 * c)) / case.lam
    print(f"  t={t:.1f}: z = {z.real:+.10f}  closed form {ref:+.10f}")

# --- integer slopes: exact forms and the two approximations ------------

print(f"\n{'lam':>4} {'exact':>9} {'heuristic':>10} {'omega':>8}")
for lam in (3, 4, 5, 6, 7):
    part = MarkovPartition.unit() if lam % 2 else MarkovPartition.half_integer()
    d = diffusion_spectral(build_transition_matrices(linear_map(lam), part)).d
    print(f"{lam:>4} {d:>9.5f} {heuristic_d(lam):>10.5f} {omega_approx_d(lam):>8.5f}")

print("\nodd slopes also admit the closed integral, e.g. lam = 5:",
      closed_form_d(linear_map(5.0)))
