#!/usr/bin/env python3
"""Regenerate the bundled run configurations under src/vmvp/configs/.

The two-phase data is mirror symmetric so the mean initial current vanishes
exactly; densities stay well above zero and momenta keep the relativistic
validity gate comfortable for every bundled eps.
"""

from pathlib import Path

from vmvp.config import PhaseSpec, RunConfig, save_config

OUT = Path(__file__).resolve().parent.parent / "src" / "vmvp" / "configs"


def two_phases(rho_amp=0.08, rho_amp2=0.04, drift=0.25, shear=0.05):
    # sin(k.x) with amplitude a lists the +k coefficient -i a / 2
    p1 = PhaseSpec(
        mu=0.5,
        rho_modes=[((0, 0), 1.0), ((1, 0), rho_amp / 2), ((0, 1), rho_amp2 / 2)],
        xi_modes=[
            (0, (0, 0), drift),
            (0, (0, 1), -0.5j * shear),
            (1, (1, 0), -0.25j * shear),
        ],
    )
    p2 = PhaseSpec(
        mu=0.5,
        rho_modes=[((0, 0), 1.0), ((1, 0), rho_amp / 2), ((0, 1), rho_amp2 / 2)],
        xi_modes=[
            (0, (0, 0), -drift),
            (0, (0, 1), 0.5j * shear),
            (1, (1, 0), 0.25j * shear),
        ],
    )
    return [p1, p2]


def main():
    OUT.mkdir(parents=True, exist_ok=True)

    # desk-scale sweep: well prepared, d=2, K=16
    sweep = RunConfig(
        dim=2,
        cutoff=16,
        eps_list=[0.4, 0.2, 0.1, 0.05],
        t_final=0.5,
        dt=1e-3,
        phases=two_phases(),
        n_particles=4096,
        seed=20240801,
        output_dir="out/sweep2d",
    )
    save_config(sweep, OUT / "sweep2d.cfg")

    # small verification config: fast enough for the full invariant battery
    small = RunConfig(
        dim=2,
        cutoff=8,
        eps_list=[0.2],
        t_final=0.05,
        dt=1e-3,
        phases=two_phases(),
        n_particles=512,
        seed=11,
        w2_subsample=256,
        snapshot_every=10,
        bootstrap_reps=8,
        output_dir="out/small2d",
    )
    save_config(small, OUT / "small2d.cfg")

    # analytic fixed-point iteration: small eta, non-well-prepared extras so
    # the oscillatory wave data is exercised
    ck = RunConfig(
        dim=2,
        cutoff=8,
        eps_list=[0.2],
        t_final=0.05,
        dt=1e-3,
        phases=two_phases(rho_amp=0.06, rho_amp2=0.03, drift=0.2, shear=0.04),
        e0_modes=[(1, (1, 0), 0.02)],          # 0.04 cos(x1) e2, transverse
        b0_modes=[(0, (0, 0), 0.05), (0, (0, 1), 0.01)],
        delta0=1.4,
        delta1=1.15,
        eta=0.25,
        ck_n_iters=10,
        ck_n_time=256,
        n_particles=256,
        seed=7,
        output_dir="out/ck2d",
    )
    save_config(ck, OUT / "ck2d.cfg")
    print(f"wrote {len(list(OUT.glob('*.cfg')))} configs to {OUT}")


if __name__ == "__main__":
    main()
