#!/usr/bin/env python3
"""Phonon creation out of the vacuum: the production wedge.

Start the chain at rest, switch the thermostat on at temperature T, and
average an ensemble: a wedge |x| <= v(k) t of phase-space density builds up
at exactly absorb(k) * T per wavenumber, and stays empty beyond the causal
front.  This script estimates the wedge plateau per k-bin with smooth
space/wavenumber windows and compares it to the table.

Run:  python demos/04_thermal_production.py        (~1 second)
Output: demos/out/production.csv + console table
"""

import csv
from pathlib import Path

from phonon_scatter import (DispersionRelation, EnsembleNoise, ThermostatParams,
                            build_table, nn_unpinned, production_profile,
                            run_vacuum_ensemble)

OUT = Path(__file__).parent / "out"


def main():
    OUT.mkdir(exist_ok=True)
    ker = nn_unpinned()
    disp = DispersionRelation(ker)
    table = build_table(disp, gamma=1.0, n_k=512, delta_excl=0.02)
    N, M, T = 256, 400, 1.0
    dt, t_macro = 0.05, 0.3
    # from rest the chain is linear in the noise: the ensemble is the paths'
    # increments times the integrator's impulse response, never stepped, and
    # it comes back as the wave field psi = Omega q + ip
    psi = run_vacuum_ensemble(ker, disp, ThermostatParams(1.0, T), N, dt,
                              int(round(t_macro * N / dt)), M,
                              noise=EnsembleNoise(11, M, dt))
    bins, notes = production_profile(psi, disp, table, T, t_macro,
                                     k_band=(0.15, 0.35), n_bins=6,
                                     min_samples=200)
    print(f"{'k bin':>16} {'wedge density':>14} {'absorb*T':>10} {'ratio':>7}")
    rows = []
    for b in bins:
        ratio = b.estimate / b.prediction
        print(f"[{b.k_lo:.3f}, {b.k_hi:.3f}] {b.estimate:>14.5f} "
              f"{b.prediction:>10.5f} {ratio:>7.3f}")
        rows.append([f"{b.k_lo:.5f}", f"{b.k_hi:.5f}", f"{b.estimate:.6f}",
                     f"{b.stderr:.2e}", f"{b.prediction:.6f}", f"{ratio:.4f}"])
    for note in notes:
        print("note:", note)
    with (OUT / "production.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k_lo", "k_hi", "wedge_density", "stderr", "absorb_T", "ratio"])
        w.writerows(rows)
    print(f"wrote {OUT/'production.csv'}")


if __name__ == "__main__":
    main()
