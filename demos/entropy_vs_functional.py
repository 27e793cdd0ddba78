"""Entropy integrals versus measure functionals on small spaces.

The classical route to E sup bounds a Gaussian process through covering
numbers: the entropy integral sums delta * sqrt(log2 N(delta)) over dyadic
scales.  The measure route replaces the uniform worst case with a
probability measure and integrates sqrt(log2(1/ball mass)).  On equidistant
spaces the two coincide exactly; on lopsided spaces the measure adapts and
the functional pulls ahead of the entropy value at the best measure.
"""

import numpy as np

from chainscope import (build_from_distance_matrix, build_from_points,
                        entropy_integral, functional_M, maximize_M_self,
                        uniform_measure)


def show(title, space):
    print(f"\n== {title} (n={space.n}, diam={space.diam:g}) ==")
    dudley = entropy_integral(space, space.diam)
    mu = uniform_measure(space)
    m_uniform = functional_M(mu, mu)
    best = maximize_M_self(space, restarts=6)
    print(f"  entropy integral        : {dudley:.6f}")
    print(f"  functional at uniform   : {m_uniform:.6f}")
    print(f"  functional at best found: {best.objective:.6f}")
    print(f"  best weights            : {np.round(best.measure.weights, 4)}")


def main():
    m = 8
    equi = build_from_distance_matrix(np.ones((m, m)) - np.eye(m))
    show("8 equidistant points", equi)
    # sqrt(log2 8) = 1.732...: uniform is already optimal here

    lopsided = build_from_points([[0.0], [0.05], [0.1], [5.0]])
    show("tight cluster plus one far point", lopsided)
    # the best measure shifts weight to the far point: the cluster is
    # nearly invisible at the dominant scale

    collinear = build_from_points([[0.0], [1.0], [3.0]])
    show("collinear {0, 1, 3}", collinear)


if __name__ == "__main__":
    main()
