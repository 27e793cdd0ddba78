"""Greedy partition trees: chained upper bounds and an empirical converse.

A partition tree carves the space at geometrically shrinking radii using
Monte Carlo estimates of each cell's expected supremum to pick carving
order.  Two things fall out: a chained sum that dominates the measure
functional from above, and per-cell audits whose induction sum divides the
root supremum to give an empirical lower-bound constant.
"""

import numpy as np

from chainscope import (ProbabilityMeasure, build_model, build_partition,
                        chained_functional, common_sample_oracle,
                        functional_M, lower_bound_report, uniform_measure)


def main():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((10, 4))
    model = build_model(a @ a.T + 0.5 * np.eye(10))
    oracle = common_sample_oracle(model, 50000, seed=1)
    tree = build_partition(model.space, oracle, r=4.0)

    print(f"space: n={model.n}, diam={model.space.diam:.4f}")
    print(f"tree: depth={tree.depth}, level sizes="
          f"{[len(level) for level in tree.levels]}")

    mu = uniform_measure(model.space)
    chained = chained_functional(tree, mu, mu)
    direct = functional_M(mu, mu)
    print(f"functional at uniform : {direct:.6f}")
    print(f"chained tree bound    : {chained:.6f}  (must dominate)")

    w = rng.dirichlet(np.ones(model.n))
    nu = ProbabilityMeasure(model.space, w)
    print(f"random nu             : M={functional_M(mu, nu):.6f}"
          f" <= chained={chained_functional(tree, mu, nu):.6f}")

    esup = tree.levels[0][0].F_estimate
    rep = lower_bound_report(tree, mu, esup)
    print(f"root E sup estimate   : {esup:.6f}")
    print(f"audit induction sum   : {rep['induction_sum']:.6f}")
    print(f"empirical constant    : {rep['empirical_constant']:.6f}")


if __name__ == "__main__":
    main()
