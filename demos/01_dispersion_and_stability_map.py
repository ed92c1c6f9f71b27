"""Growth rate of the sheared interface vs transverse field strength.

The classic result this package verifies numerically: a magnetic field
perpendicular to the streaming direction does nothing to streamwise
perturbations.  The squared growth rate for wave vector k is

    gamma^2 = n1 n2 / (n1+n2)^2 [k.(U2-U1)]^2
              - [(k.B1)^2 + (k.B2)^2] / (4 pi (n1+n2) m_i)

and with fields (0, a, 0) / (0, b, 0) the tension terms vanish for
k = (k1, 0).  Spanwise wave vectors, in contrast, are stabilized once
the fields are strong enough.  The script prints a small (a, b) map for
both orientations plus the condition flags that screen the classical
stability inequalities (the transverse configuration violates the
second one for every a, b > 0: the two fields are parallel, so their
cross product cannot dominate anything).

Run:  python demos/01_dispersion_and_stability_map.py
"""

import numpy as np

from khlab.core import ShearParams, WaveVector
from khlab.stability import stability_map

params = ShearParams()   # u = (+-1, 0, 0), densities 1

for k in (WaveVector(1, 0), WaveVector(0, 1)):
    a_vals = np.linspace(0.0, 2.0, 5)
    b_vals = np.linspace(0.0, 2.0, 5)
    # one row of the printed grid per a value: the columns run b fastest
    gamma_squared = stability_map(params, a_vals, b_vals, k)["gamma_squared"]
    print(f"\nwave vector k = ({k.k1}, {k.k2}):   gamma^2 over the (a, b) grid")
    header = "   a\\b " + "".join(f"{b:10.2f}" for b in b_vals)
    print(header)
    for a, row in zip(a_vals, np.reshape(gamma_squared, (a_vals.size, b_vals.size))):
        cells = "".join(f"{g2:10.4f}" for g2 in row)
        print(f"{a:7.2f}{cells}")

print("\ncondition flags at a = b = 1 (transverse configuration):")
flags = stability_map(params, [1.0], [1.0], WaveVector(1, 0))
print(f"  syrovatskij first  : {flags['syrovatskij_first'][0]}")
print(f"  syrovatskij second : {flags['syrovatskij_second'][0]}   <- parallel fields fail here")
print(f"  strong condition   : {flags['strong_condition'][0]}")
