#!/usr/bin/env python3
"""Fire a wave packet at the thermostat and observe the three-way split.

A zero-temperature run is deterministic: a narrow-band packet launched at
x = -0.2 with carrier k = 1/4 crosses the pinned site, and the energy
bookkeeping afterwards (smooth spectral masks around +-k, spatial windows
beyond |x| = 0.1) should reproduce the macroscopic transmission /
reflection / absorption probabilities of the coefficient table.  The
leftover is exactly what the thermostat swallowed.  The ring is advanced by
`run_zero_temperature`, the integrator's own law in closed form, so the
61,440 and 122,880 steps are never stepped one by one.

Run:  python demos/03_packet_scattering.py        (~1 s on a 2-vCPU host)
Output: demos/out/scattering_profile.csv + console table
"""

import csv
from pathlib import Path

import numpy as np

from phonon_scatter import (DispersionRelation, ThermostatParams, WavePacketSpec,
                            build_table, init_rng, nn_unpinned, run_zero_temperature,
                            sample_initial, scattering_fractions, site_coordinates,
                            wave_field)

OUT = Path(__file__).parent / "out"


def main():
    OUT.mkdir(exist_ok=True)
    ker = nn_unpinned()
    disp = DispersionRelation(ker)
    table = build_table(disp, gamma=1.0, n_k=512, delta_excl=0.02)
    targets = (float(table.p_plus_at(0.25)), float(table.p_minus_at(0.25)),
               float(table.absorb_at(0.25)))
    print("macroscopic prediction at k=1/4: "
          f"p+ = {targets[0]:.4f}, p- = {targets[1]:.4f}, absorb = {targets[2]:.4f}")

    print(f"{'N':>6} {'trans':>8} {'refl':>8} {'absorb':>8} {'max err':>9}")
    psi_final = None
    for N in (1024, 2048):
        spec = WavePacketSpec(x_center=-0.2, k_center=0.25, width=0.1)
        st = sample_initial(spec, N, disp, rng=init_rng(5))
        e0 = float(np.sum(np.abs(wave_field(st.p, st.q, disp)) ** 2)) / N
        run_zero_temperature(st.p, st.q, ker, disp, ThermostatParams(1.0, 0.0), 0.01,
                             int(round(0.6 * N / 0.01)))
        psi_final = wave_field(st.p, st.q, disp)
        fr = scattering_fractions(psi_final, disp, 0.25, e0)
        err = max(abs(fr.transmitted - targets[0]), abs(fr.reflected - targets[1]),
                  abs(fr.absorbed - targets[2]))
        print(f"{N:>6} {fr.transmitted:>8.4f} {fr.reflected:>8.4f} "
              f"{fr.absorbed:>8.4f} {err:>9.4f}")

    N = psi_final.shape[-1]
    x = site_coordinates(N) / N
    order = np.argsort(x)
    with (OUT / "scattering_profile.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "energy_density"])
        for i in order:
            w.writerow([f"{x[i]:.6f}", f"{abs(psi_final[i])**2:.6e}"])
    print(f"wrote the final |psi|^2 profile to {OUT/'scattering_profile.csv'}")


if __name__ == "__main__":
    main()
