"""The three extremal problems and their ordering, on one small space.

For a finite space there are three natural extrema of the functional
M(mu, nu): maximize M(mu, mu) over mu (sup_self), minimize the worst
one-point integral sup_t M(mu, delta_t) (inf_sup), and maximize the best
one-point integral inf_t M(mu, delta_t) (sup_inf).  Averaging over t pins
sup_inf <= sup_self pointwise; the reverse comparisons hold up to
universal constants, which this script reports as observed ratios next to
the Monte Carlo E sup of a Gaussian model matched to the metric.
"""

import numpy as np

from chainscope import build_from_points, build_model, duality_report
from chainscope.io import covariance_from_instance


def main():
    points = [[0.0], [1.0], [3.0]]
    space = build_from_points(points)
    cov = covariance_from_instance({"metric": {"type": "points", "data": points}}, space)
    model = build_model(cov)

    rep = duality_report(space, model, n_samples=200000, seed=1, restarts=8)

    print("collinear space {0, 1, 3}")
    print(f"  sup_self (lower bound) : {rep.sup_self:.6f}")
    print(f"  inf_sup  (upper bound) : {rep.inf_sup:.6f}")
    print(f"  sup_inf  (lower bound) : {rep.sup_inf:.6f}")
    print(f"  E sup (Monte Carlo)    : {rep.esup:.6f} +- {rep.esup_stderr:.6f}")
    print("  observed ratios:")
    for name, value in rep.ratios.items():
        print(f"    {name:20s}: {value:.4f}")
    print("  best-found measures:")
    for name, w in rep.measures.items():
        print(f"    {name:10s}: {np.round(np.asarray(w), 4)}")
    if rep.flags:
        print(f"  flags: {rep.flags}")


if __name__ == "__main__":
    main()
