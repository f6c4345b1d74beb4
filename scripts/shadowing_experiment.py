#!/usr/bin/env python3
"""Homoclinic loop -> periodic pseudo-orbits -> shadowed periodic orbits.

Builds the homoclinic datum of a rational periodic point of a toral
automorphism, assembles a pseudo-orbit of every length in a window, and
shadows each into a true periodic orbit, printing a per-length table of
defects, residuals, and shadowing distances against the C*delta bound.
"""

import argparse
import time
from dataclasses import dataclass
from fractions import Fraction

from symshadow.homoclinic import (build_periodic_pseudo_orbit,
                                  compute_excursion_parameters,
                                  verify_pseudo_orbit)
from symshadow.shadowing import density_check, shadow_periodic
from symshadow.systems import ToralAutomorphism, homoclinic_point


@dataclass(frozen=True)
class ExperimentConfig:
    matrix: tuple = ((2, 1), (1, 1))
    point: tuple = (Fraction(1, 5), Fraction(2, 5))
    delta: float = 1e-2
    lengths_beyond_threshold: int = 50
    tol: float = 1e-12


def run(config: ExperimentConfig) -> bool:
    system = ToralAutomorphism(config.matrix)
    split = system.splitting()
    print(f"system: toral {config.matrix}, lam_u = {split.lam_u:.6f}, "
          f"C = {split.shadowing_constant:.4f}")
    datum = homoclinic_point(system, config.point, config.delta,
                             forward_length=160, backward_length=120)
    params = compute_excursion_parameters(datum)
    print(f"excursion parameters: N = {params.N}, l = {params.l}, N0 = {params.N0}")
    last = params.N0 + config.lengths_beyond_threshold
    if datum.k_fwd < params.x_index + last:  # the near-p block runs forward from x
        datum = homoclinic_point(system, config.point, config.delta,
                                 forward_length=params.x_index + last, backward_length=120)
    reference = list(datum.segment) + list(datum.p_orbit)
    bound = split.shadowing_constant * config.delta

    print(f"{'n':>5} {'defect':>12} {'residual':>12} {'shadow_dist':>12} "
          f"{'< C*delta':>9} {'3eps-dense':>10}")
    ok = True
    start = time.time()
    for n in range(params.N0, last + 1):
        po = build_periodic_pseudo_orbit(datum, params, n)
        orbit = shadow_periodic(system, po, tol=config.tol)
        check = verify_pseudo_orbit(po, config.delta, reference=reference)
        eps = max(check["hausdorff_to_reference"], orbit.shadow_distance)
        dense = density_check(system, orbit.points, 3 * eps, net_points=reference)
        good = (po.defect <= config.delta and orbit.residual <= config.tol
                and orbit.shadow_distance <= bound and dense.dense)
        ok &= good
        print(f"{n:>5} {po.defect:>12.3e} {orbit.residual:>12.3e} "
              f"{orbit.shadow_distance:>12.3e} {str(orbit.shadow_distance <= bound):>9} "
              f"{str(dense.dense):>10}")
    print(f"{'ALL PASS' if ok else 'FAILURES ABOVE'} in {time.time() - start:.1f}s")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--delta", type=float, default=1e-2)
    parser.add_argument("--lengths", type=int, default=50)
    args = parser.parse_args()
    config = ExperimentConfig(delta=args.delta,
                              lengths_beyond_threshold=args.lengths)
    raise SystemExit(0 if run(config) else 1)


if __name__ == "__main__":
    main()
