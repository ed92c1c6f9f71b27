"""The ill-posedness signature: vanishing data, exploding response.

For each frequency n the initial pair (chi, d chi/dt) = (0, e^{-sqrt n}
times the wall-bounded velocity mode) is built, decomposed and evolved
with the exact propagators.  Its sup norm shrinks with n while the
evolved high-order readout at fixed time grows without bound: no
Sobolev-to-Sobolev solution map can be continuous at the background
shear.  The growing-branch functional E1+ multiplies by e^{2 n t},
comfortably beating the e^{n t} certificate the growth check demands.

Run:  python demos/05_illposedness_signature.py
"""

import math

import numpy as np

from khlab.evolution import evolve_state
from khlab.functionals import (
    check_growth_corollary,
    decompose_perturbation,
    h2_readout,
    perturbed_initial_data,
)

print("  n    |data|_sup     E1+(1)/E1+(0)   e^{n}        ||A grad P||(t=1)  certificate")
for n in (4, 8, 16):
    chi, chi_dot = perturbed_initial_data(n, 1.0, n_tan=64, n_ver=32)
    sup = abs(chi_dot).max()
    state = decompose_perturbation(chi, chi_dot, n_cutoff=n)
    traj = [(float(t), evolve_state(state, 0.0, 0.0, float(t)))
            for t in np.linspace(0.0, 1.0, 5)]
    growth = check_growth_corollary(traj, n)
    readout = h2_readout(traj[-1][1])
    print(f"  {n:2d}   {sup:.4e}   {growth.growth_factor:.5e}    {math.exp(n):.3e}"
          f"   {readout:.5e}       {'PASS' if growth.passed else 'FAIL'}")

print("\nsup norms fall, responses rise: continuity of the data-to-solution")
print("map fails at every positive time.")
