#!/usr/bin/env python3
"""The thermostat as a scatterer: transmission, reflection, absorption.

A phonon of wavenumber k hitting the pinned site is transmitted with
probability p+(k), reflected with p-(k), and absorbed with probability
absorb(k); the same absorb(k) times the temperature is the rate at which
the thermostat creates phonons.  The coefficients come from the boundary
value nu(k) of the memory resolvent, computed here two independent ways
(principal-value quadrature vs extrapolated resolvent), and satisfy

    p+ + p- + absorb = 1        exactly,
    Re nu = (1 + pi gamma/|omega'|) |nu|^2.

At k = 1/4 on the unpinned chain with gamma = 1 everything is algebraic:
nu = 2 - sqrt(2), p+ = 6 - 4 sqrt(2), p- = 3 - 2 sqrt(2), absorb =
6 sqrt(2) - 8.

Run:  python demos/02_interface_coefficients.py
Output: demos/out/coefficients.csv, demos/out/coefficients.gp
"""

from pathlib import Path

import numpy as np

from phonon_scatter import (DispersionRelation, build_table, nn_unpinned,
                            nu_laplace_limit)

OUT = Path(__file__).parent / "out"

GNUPLOT_LAYOUT = """\
# gnuplot layout for coefficients.csv
set datafile separator ','
set key autotitle columnhead
set xlabel 'k'
set ylabel 'probability'
plot 'coefficients.csv' using 1:5 with lines, \\
     '' using 1:6 with lines, \\
     '' using 1:4 with lines
"""


def main():
    OUT.mkdir(exist_ok=True)
    disp = DispersionRelation(nn_unpinned())
    table = build_table(disp, gamma=1.0, n_k=512, delta_excl=0.02)
    print(f"table: {table.k_grid.size} points, "
          f"sum identity residual {table.max_sum_residual:.1e}, "
          f"response identity residual {table.max_renu_residual:.1e}")

    i = int(np.argmin(np.abs(table.k_grid - 0.25)))
    print(f"near k=1/4: nu = {table.nu[i]:.9f} "
          f"(closed form {2 - np.sqrt(2):.9f} at exactly 1/4)")
    print(f"  p+ = {table.p_plus[i]:.6f}, p- = {table.p_minus[i]:.6f}, "
          f"absorb = {table.absorb[i]:.6f}")

    for k in (0.1, 0.25, 0.4):
        a = table.nu[np.argmin(np.abs(table.k_grid - k))]
        b = nu_laplace_limit(disp, 1.0, k)
        print(f"cross-check k={k}: PV route {a:.6f}, resolvent route {b:.6f}, "
              f"diff {abs(a - b):.1e}")

    table.export_csv(OUT / "coefficients.csv")
    (OUT / "coefficients.gp").write_text(GNUPLOT_LAYOUT)
    print(f"wrote {OUT/'coefficients.csv'} and a gnuplot layout")


if __name__ == "__main__":
    main()
