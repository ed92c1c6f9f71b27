"""Two-phase interface pressure problem: analytic solve vs grid oracle.

The linearized pressure satisfies a Laplace problem in each phase with
Neumann walls and prescribed value/flux jumps at the interface.  Per
tangential mode the solution is a pair of interface-anchored cosh
profiles; the package also ships a second-order finite-difference
oracle that discretizes the same problem with one-sided coupling rows.
The script runs a mesh-refinement study (the error should quarter per
halving, fitted order two) and demonstrates the harmonic + source
superposition split on random smooth data.

Run:  python demos/03_interface_pressure_solver.py
"""

import math

import numpy as np

from khlab.core import TwoPhaseGridField, WaveVector
from khlab.pressure import (
    fitted_convergence_order,
    mode_solver_fd_error,
    pressure_decomposition,
    solve_mode_interface_flux,
    solve_two_phase_poisson_fd,
)

print("analytic mode solution, kappa = 1, unit per-phase interface flux:")
q_up, q_lo = solve_mode_interface_flux(WaveVector(1, 0), flux_jump=2.0)
print(f"  q(0+) = {complex(q_up.eval_upper(0.0)).real:+.6f}   "
      f"(-coth 1 = {-1 / math.tanh(1):+.6f})")
print(f"  dq/dx3 at the upper wall: {abs(q_up.derivative().eval_upper(1.0)):.2e}")

print("\nmesh refinement against the analytic solution:")
print("  kappa   n     max error     order")
for kappa in (1, 2, 4):
    prev = None
    errs = []
    for n in (16, 32, 64):
        err = mode_solver_fd_error(WaveVector(kappa, 0), 1.0, n, n)
        errs.append(err)
        order = "" if prev is None else f"{math.log2(prev / err):5.2f}"
        print(f"  {kappa:5d}  {n:3d}   {err:.6e}   {order}")
        prev = err
    print(f"        fitted order: {fitted_convergence_order(errs):.3f}")

print("\nharmonic + source superposition on random smooth data:")
n = 32
x = 2 * math.pi * np.arange(n) / n
zu = np.linspace(0, 1, n + 1)
zl = np.linspace(-1, 0, n + 1)
tang = np.cos(x)[:, None, None] * np.cos(2 * x)[None, :, None]
source = TwoPhaseGridField(np.array([tang * np.cos(math.pi * zu)[None, None, :],
                                     tang * np.cos(math.pi * zl)[None, None, :]]))
M = np.sin(x)[:, None] * np.ones((1, n))
q1, q2 = pressure_decomposition(source, M)
combined = solve_two_phase_poisson_fd(source, flux_jump=M)
error = np.max(np.abs((q1.values + q2.values) - combined.values))
print(f"  ||(q1 + q2) - q_combined||_inf = {error:.3e}")
