#!/usr/bin/env python3
"""Walk through the lattice layer: coupling kernels, dispersion, memory.

The unpinned nearest-neighbour chain has the acoustic band omega(k) =
2|sin(pi k)|; adding a pinning mass m gaps it to sqrt(m^2 + 4 sin^2(pi k)).
The site-0 memory function J(t) = int cos(omega(k) t) dk controls how the
thermostat's past acts on the present; for the unpinned chain it happens to
be a classical oscillatory special function, which makes a sharp accuracy
check: the table written below carries the quadrature error columns.

Run:  python demos/01_dispersion_and_memory.py   (the Bessel reference needs
      scipy, from the package's `test` extra)
Output: demos/out/dispersion.csv, demos/out/memory.csv (+ console narrative)
"""

import csv
from pathlib import Path

import numpy as np
from scipy.special import j0

from phonon_scatter import (DispersionRelation, MemoryKernel, j_eval, j_laplace,
                            nn_pinned, nn_unpinned)

OUT = Path(__file__).parent / "out"


def main():
    OUT.mkdir(exist_ok=True)
    disp_a = DispersionRelation(nn_unpinned())
    disp_o = DispersionRelation(nn_pinned(1.0))
    print(f"acoustic band: [{disp_a.omega_min:.3f}, {disp_a.omega_max:.3f}], "
          f"zero-velocity set {disp_a.stationary_set}")
    print(f"optical band:  [{disp_o.omega_min:.3f}, {disp_o.omega_max:.3f}], "
          f"zero-velocity set {disp_o.stationary_set}")

    ks = np.linspace(-0.5, 0.5, 257)
    with (OUT / "dispersion.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "omega_acoustic", "gv_acoustic", "omega_optical",
                    "gv_optical"])
        for k in ks:
            w.writerow([f"{k:.6f}", f"{disp_a.omega(float(k)):.9f}",
                        f"{disp_a.group_velocity(float(k)):.9f}",
                        f"{disp_o.omega(float(k)):.9f}",
                        f"{disp_o.group_velocity(float(k)):.9f}"])

    t = np.linspace(0.0, 40.0, 801)
    ja = j_eval(disp_a, t)
    err = np.abs(ja - j0(2 * t))
    print(f"memory function vs the Bessel closed form: max err {err.max():.2e}")
    print(f"resolvent transform at lambda=1: {j_laplace(disp_a, 1.0).real:.12f} "
          f"(closed form {1/np.sqrt(5):.12f})")

    # the kernel must reach the end of the table written below
    mk = MemoryKernel(disp_a, gamma=1.0, dt=1e-3, horizon=float(t[-1]))
    print(f"Volterra residual of the marched density: {mk.volterra_residual():.2e}")
    phi_inf = mk.phase_integral(np.array([0.25]))[0][-1]
    print(f"phase integral at t={mk.horizon:g}, k=1/4: {phi_inf:.6f} "
          "(approaching the interface response)")
    with (OUT / "memory.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "J", "bessel_err", "g_star"])
        for i in range(0, t.size):
            ti = float(t[i])
            w.writerow([f"{ti:.4f}", f"{ja[i]:.12f}", f"{err[i]:.2e}",
                        f"{mk.g_star(ti):.12f}"])
    print(f"wrote {OUT/'dispersion.csv'} and {OUT/'memory.csv'}")


if __name__ == "__main__":
    main()
