"""Greedy partition trees driven by the set functional F(A) = E sup over A.

The construction follows the carving scheme: at level k each parent cell B
is split by repeatedly choosing the point whose small probe ball has the
largest F value and removing the larger carving ball around it.  Radii are
geometric scales r^-k scaled by the space diameter, so the
machinery works at native scale.

The chained functional translates M(mu, nu) into tree language and the
audits record both sides of the per-cell induction inequality, with the
unknown universal constant reported empirically instead of asserted.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .measures import GAUSSIAN_LOG, ProbabilityMeasure, SigmaEvaluator
from .metric_core import FiniteMetricSpace


@dataclass
class Cell:
    members: tuple
    center: int
    level: int
    parent: "Cell | None" = None
    children: list = field(default_factory=list)
    F_estimate: float = 0.0
    F_stderr: float = 0.0


@dataclass
class PartitionTree:
    space: FiniteMetricSpace
    r: float
    eps_slack: float
    levels: list  # levels[k] = list of cells forming partition A_k

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def radius(self, k: int) -> float:
        """Carving radius at level k: diam * r^-k / 2."""
        return self.space.diam * self.r ** (-k) / 2.0

    def chain(self, t: int) -> list:
        """Cells A_0(t) .. A_depth(t) containing point t."""
        out = []
        for cells in self.levels:
            for c in cells:
                if t in c.members:
                    out.append(c)
                    break
        return out


def common_sample_oracle(model, n_samples: int, seed: int):
    """F oracle backed by one shared sample matrix (common random numbers).

    Using the same draws for every subset makes F monotone under inclusion
    sample-by-sample, which keeps carving-order comparisons noise-free.
    """
    from .gaussian_lab import sample_paths

    X = sample_paths(model, 0, n_samples, seed)

    def oracle(subset):
        idx = np.fromiter(subset, dtype=int)
        m = X[:, idx].max(axis=1)
        mean = float(m.mean())
        se = float(m.std(ddof=1) / math.sqrt(len(m))) if len(m) > 1 else 0.0
        return mean, se

    return oracle


def _one_center(space: FiniteMetricSpace, members) -> int:
    idx = np.fromiter(members, dtype=int)
    sub = space.dist[np.ix_(idx, idx)]
    return int(idx[int(np.argmin(sub.max(axis=1)))])


def build_partition(space: FiniteMetricSpace, F_oracle, r: float = 4.0,
                    eps_slack: float | None = None, max_levels: int | None = None) -> PartitionTree:
    """Carve the leveled partition tree down to singleton cells.

    The maximization of F over candidate centers is exact over the finite
    set, so the +eps slack of the abstract construction is not needed to
    pick centers; ``eps_slack`` (default 0.01 * diam) survives only as the
    audit tolerance for carving-order checks.  Carving stops after
    ``max_levels + 2`` levels (by default enough for the smallest distance)
    with a warning that names the largest leaf left.
    """
    if r <= 1.0:
        raise ValueError("r must be > 1")
    if eps_slack is None:
        eps_slack = 0.01 * space.diam if space.diam > 0 else 0.01
    if eps_slack <= 0:
        raise ValueError("eps_slack must be positive")

    all_points = tuple(range(space.n))
    mean, se = F_oracle(all_points)
    root = Cell(members=all_points, center=_one_center(space, all_points) if space.n else 0,
                level=0, F_estimate=mean, F_stderr=se)
    levels = [[root]]
    if space.n <= 1:
        return PartitionTree(space=space, r=float(r), eps_slack=float(eps_slack), levels=levels)

    ds = space.distinct_distances()
    d_min = float(ds[0]) if ds.size else 0.0
    if max_levels is None:
        if space.diam > 0 and d_min > 0:
            max_levels = int(math.ceil(math.log(space.diam / d_min, r))) + 2
        else:
            max_levels = 1

    D = space.dist
    k = 1
    while any(len(c.members) > 1 for c in levels[-1]):
        if k > max_levels + 2:
            largest = max(len(c.members) for c in levels[-1])
            warnings.warn(f"partition depth cut-off at level {k - 1}: "
                          f"largest leaf has {largest} points")
            break
        carve_r = space.diam * r ** (-k) / 2.0
        probe_r = space.diam * r ** (-k - 1) / 2.0
        new_level = []
        for parent in levels[-1]:
            remaining = list(parent.members)
            while remaining:
                scores = []
                for s in remaining:
                    probe = [u for u in remaining if D[s, u] <= probe_r]
                    scores.append(F_oracle(probe)[0])
                t_i = remaining[int(np.argmax(scores))]
                cell_members = tuple(u for u in remaining if D[t_i, u] <= carve_r)
                mean, se = F_oracle(cell_members)
                cell = Cell(members=cell_members, center=t_i, level=k, parent=parent,
                            F_estimate=mean, F_stderr=se)
                parent.children.append(cell)
                new_level.append(cell)
                remaining = [u for u in remaining if D[t_i, u] > carve_r]
        levels.append(new_level)
        k += 1

    return PartitionTree(space=space, r=float(r), eps_slack=float(eps_slack), levels=levels)


# ---------------------------------------------------------------------------
# chained functionals


def _log_ratio_term(mass_parent: float, mass_child: float) -> float:
    """sqrt(log2(mu(B)/mu(A))); +inf when the child mass vanishes under a
    positive parent mass."""
    if mass_child <= 0.0:
        return math.inf if mass_parent > 0.0 else 0.0
    ratio = max(mass_parent / mass_child, 1.0)
    return math.sqrt(math.log2(ratio))


def _cell_mass(mu: ProbabilityMeasure, cell: Cell) -> float:
    return float(sum(mu.weights[list(cell.members)]))


def chained_functional(tree: PartitionTree, mu: ProbabilityMeasure,
                       nu: ProbabilityMeasure) -> float:
    """r * sum_k diam r^-k sum_{B} sum_{A in A_k(B)} nu(A) sqrt(log2(mu(B)/mu(A))).

    Terms with nu(A) = 0 contribute 0 even when mu(A) = 0; a charged cell of
    zero mu-mass makes the whole value +inf.  Levels past the first
    all-singleton one would contribute 0, so the finite sum is exact.
    """
    D = tree.space.diam
    total = 0.0
    for k in range(1, len(tree.levels)):
        weight = tree.r * D * tree.r ** (-k)
        for parent in tree.levels[k - 1]:
            mp = _cell_mass(mu, parent)
            for child in parent.children:
                nu_a = _cell_mass(nu, child)
                if nu_a <= 0.0:
                    continue
                term = _log_ratio_term(mp, _cell_mass(mu, child))
                if math.isinf(term):
                    return math.inf
                total += weight * nu_a * term
    return total


def verify_tree_translation(tree: PartitionTree, mu: ProbabilityMeasure, t: int, delta: float,
                  mode: str = GAUSSIAN_LOG):
    """Point-chain translation: sigma(mu, t, delta) against the tree sum.

    Returns (lhs, rhs, ok) with ok = lhs <= rhs + 1e-9; a zero-mass cell on
    the chain makes rhs infinite and the check trivially true.
    """
    ev = SigmaEvaluator(tree.space, delta, mode)
    lhs = float(ev.profile(mu.weights)[t])
    chain = tree.chain(t)
    D = tree.space.diam
    rhs = 0.0
    for k in range(1, len(chain)):
        term = _log_ratio_term(_cell_mass(mu, chain[k - 1]), _cell_mass(mu, chain[k]))
        if math.isinf(term):
            rhs = math.inf
            break
        rhs += tree.r * D * tree.r ** (-k) * term
    return lhs, rhs, bool(lhs <= rhs + 1e-9)


# ---------------------------------------------------------------------------
# audits


@dataclass(frozen=True)
class CellAudit:
    level: int
    center: int
    lhs: float
    rhs_core: float
    children_term: float
    empirical_L: float
    block_sizes: tuple
    block_masses: tuple
    l0: int
    low_confidence: bool


def grouping_block_sizes(m_cells: int):
    """Block sizes m_l = 2^(2^l) capped at the cell count, and l0."""
    if m_cells < 1:
        return [], 0
    l0 = 0
    while 2 ** (2 ** l0) < m_cells:
        l0 += 1
    bounds = [0]
    for l in range(l0 + 1):
        bounds.append(min(2 ** (2 ** l), m_cells))
    return [bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)], l0


def grouping_bound(l0: int) -> float:
    """1 + sum_{l<=l0} (2^(l/2)+1)/2^(2^l); stays below 4 for every l0."""
    return 1.0 + sum((2.0 ** (l / 2.0) + 1.0) / 2.0 ** (2 ** l) for l in range(l0 + 1))


def audit_cell(tree: PartitionTree, mu: ProbabilityMeasure, cell: Cell) -> CellAudit:
    """Both sides of the per-cell induction inequality at parent cell B.

    lhs = mu(B) (F(B) + 4 diam r^-k); rhs combines the entropy-like child
    sum and the grandchild functional mass.  empirical_L is the smallest L
    making lhs >= child_sum / (2L) + grandchild_term.
    """
    k = cell.level + 1
    D = tree.space.diam
    scale = D * tree.r ** (-k)
    m_b = _cell_mass(mu, cell)
    lhs = m_b * (cell.F_estimate + 4.0 * scale)
    child_sum = 0.0
    for child in cell.children:
        m_a = _cell_mass(mu, child)
        if m_a > 0:
            child_sum += m_a * _log_ratio_term(m_b, m_a)
    core = scale * child_sum
    grand = 0.0
    worst_se = cell.F_stderr
    for child in cell.children:
        for gc in child.children:
            grand += _cell_mass(mu, gc) * gc.F_estimate
            worst_se = max(worst_se, gc.F_stderr)
    if core <= 0.0:
        emp_l = 0.0
    elif lhs > grand:
        emp_l = core / (2.0 * (lhs - grand))
    else:
        emp_l = math.inf
    sizes, l0 = grouping_block_sizes(len(cell.children))
    masses = []
    pos = 0
    for s in sizes:
        masses.append(float(sum(_cell_mass(mu, c) for c in cell.children[pos:pos + s])))
        pos += s
    return CellAudit(level=cell.level, center=cell.center, lhs=float(lhs),
                     rhs_core=float(core), children_term=float(grand),
                     empirical_L=float(emp_l), block_sizes=tuple(sizes),
                     block_masses=tuple(masses), l0=l0,
                     low_confidence=bool(worst_se > 0.1 * scale))


def lower_bound_report(tree: PartitionTree, mu: ProbabilityMeasure, esup_estimate: float):
    """Assembled induction sum and the implied empirical constant.

    induction_sum carries the r^-k weights of the even/odd level
    recombination; empirical_constant divides it by
    2 (E sup + 4 diam sum_k r^-k) over the levels the tree actually has.
    """
    D = tree.space.diam
    ind = 0.0
    for k in range(1, len(tree.levels)):
        weight = D * tree.r ** (-k)
        for parent in tree.levels[k - 1]:
            mp = _cell_mass(mu, parent)
            for child in parent.children:
                m_a = _cell_mass(mu, child)
                if m_a > 0:
                    ind += weight * m_a * _log_ratio_term(mp, m_a)
    tail = D * sum(tree.r ** (-k) for k in range(1, len(tree.levels)))
    denom = 2.0 * (esup_estimate + 4.0 * tail)
    return {"induction_sum": float(ind),
            "empirical_constant": float(ind / denom) if denom > 0 else 0.0}
