"""Wall-bounded normal modes and their defining residuals.

Each tangential wave vector carries a closed-form velocity mode: the
wall-normal profile W vanishes at the walls, equals one at the interface
from both sides, and the tangential profile V = i W'/kappa makes the
mode exactly divergence-free.  The script tabulates the profiles for a
moderate wave number, then audits modes up to kappa = 64: harmonicity,
divergence, wall and interface-continuity defects all sit at roundoff
because the profiles are built in a wall-adapted exponential basis
(naive cosh/sinh coefficients would cancel catastrophically long before
kappa = 64).  The harmonic and divergence residuals are read from the
closed form, relative to the terms they are formed from.

Run:  python demos/02_wall_bounded_modes.py
"""

import numpy as np

from khlab.core import WaveVector
from khlab.eigenmodes import build_linearized_mode, build_wall_bounded_profiles, verify_mode

k = WaveVector(4, 0)
W, V = build_wall_bounded_profiles(k)

print(f"profiles for kappa = {k.kappa:.0f}  (x3, W, Im V):")
for x3 in np.linspace(-1.0, 1.0, 9):
    w = complex(W.eval(x3)).real
    v = complex(V.eval(x3)).imag
    print(f"  {x3:6.2f}   {w:12.6f}   {v:12.6f}")

print("\nresidual audit over streamwise wave numbers:")
print("   k    harmonic*     divergence*   wall          continuity")
for kval in (1, 8, 32, 64):
    rep = verify_mode(build_linearized_mode(WaveVector(kval, 0), "+"))
    print(f"  {kval:3d}   {rep.max_harmonic_residual:.3e}    "
          f"{rep.max_divergence_residual:.3e}     {rep.wall_bc_residual:.3e}"
          f"     {rep.interface_continuity_residual:.3e}")
print("  * relative to the terms each is formed from; wall and continuity are absolute")

mode = build_linearized_mode(WaveVector(3, 0), "+")
x = (0.7, 0.0, 0.25)
v0 = mode.velocity(*x, t=0.0)[2]
v1 = mode.velocity(*x, t=1.0)[2]
print(f"\namplification of the k = 3 mode over one time unit: "
      f"{abs(v1) / abs(v0):.4f}  (e^3 = {np.exp(3):.4f})")
