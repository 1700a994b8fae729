"""Wasserstein-2 machinery on (torus x velocity) phase space.

The metric is the product of the per-axis geodesic torus distance on positions
and the Euclidean distance on velocities.  W2 is taken between two equally
weighted clouds of one size, by an exact optimal assignment.  It is skipped
when a duality certificate proves the index pairing optimal
(identity_pair_costs).  Otherwise, on large clouds, a sparse solve that
builds no n x n array is tried first: an epsilon-scaling auction
(_auction_prices) on each point's AUCTION_K columns of smallest cost plus
price, all found by one kd-tree query (_candidates), shortest augmenting
paths for the rows it leaves free (_complete), and an LP duality certificate
that proves which edges an optimal assignment can use (_certified_columns).
Any of the three may decline; then, and on small clouds, scipy's shortest
augmenting path solver runs on the cost matrix (w2_assignment).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .errors import ValidationError
from .spectral import SpectralField, gradient, l2_norm, padded_grid_size, solve_poisson

TWO_PI = 2.0 * np.pi
EFFICIENCY_FLOOR = 1e-3  # rejection sampling aborts below this acceptance rate
_COST_BLOCK = 1 << 15    # entries per cost-kernel temporary (256 KiB), so a row block stays in cache

# the auction behind w2_assignment's sparse solve (Bertsekas, Ann. Oper. Res. 14 (1988))
AUCTION_K = 48                 # candidate columns per row; clouds up to 2 K points skip the auction
AUCTION_EPS_FINAL = 1e-6       # epsilon of the last scaling phase
AUCTION_EPS_RATIO = 5.0        # epsilon shrinks by this factor per phase
AUCTION_FREE_ROWS = 8          # a phase ends once at most this many rows are unassigned
AUCTION_MAX_ROUNDS = 20_000    # bidding rounds over all phases before the auction declines
AUCTION_CHECK_ROUNDS = 2000    # a first phase still bidding after this many rounds declines; Loeper cases take 231-1235
AUCTION_LIFT_EPS = 1e-4        # the first phase below this epsilon bids on candidates at its prices
CERT_MARGIN = 1e-12            # rounding margin of the sparse assignment's certificate, relative to its scale
CERT_PASSES = 3                # candidate queries, completions and certificates tried before the dense solver


def wrap_positions(x: np.ndarray) -> np.ndarray:
    """Positions reduced into the fundamental cell [0, 2pi).

    x % 2pi rounds to 2pi itself for tiny negative x (-1e-17 % 2pi == 2pi);
    that point is the cell's origin.
    """
    r = np.asarray(x) % TWO_PI
    return np.where(r == TWO_PI, 0.0, r)


def linear_sum_assignment(cost: np.ndarray):
    """scipy.optimize.linear_sum_assignment, imported on the first call.

    Only small clouds and the dense fallback solve a cost matrix, so a run
    that does neither never loads scipy.optimize, which adds about 10 MB to
    its peak memory.
    """
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted samples on torus x R^d; xi=None means a position-only measure.

    Positions need at least one axis, coordinates must be finite, and the
    weights nonnegative with sum 1 (a NaN weight fails both).
    """

    x: np.ndarray
    xi: np.ndarray | None
    weights: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size != x.shape[0]:
            raise ValidationError("weights must be one per sample")
        if not (w >= 0).all():
            raise ValidationError("weights must be nonnegative")
        if not abs(w.sum() - 1.0) <= 1e-9:
            raise ValidationError(f"weights must sum to 1 (got {w.sum()})")
        if x.shape[1] == 0:
            raise ValidationError("positions need at least one axis")
        if not np.isfinite(x).all():
            raise ValidationError("positions must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "weights", w)
        if self.xi is not None:
            xi = np.atleast_2d(np.asarray(self.xi, dtype=float))
            if xi.shape[0] != x.shape[0]:
                raise ValidationError("xi must have one row per sample")
            if not np.isfinite(xi).all():
                raise ValidationError("momenta must be finite")
            object.__setattr__(self, "xi", xi)

    @classmethod
    def uniform(cls, x, xi=None) -> "EmpiricalMeasure":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = x.shape[0]
        if n == 0:
            raise ValidationError("a cloud needs at least one point")
        return cls(x, xi, np.full(n, 1.0 / n))

    @property
    def size(self) -> int:
        return self.x.shape[0]

    def is_uniform(self) -> bool:
        """Every weight equals 1/n to a relative 1e-12."""
        return np.allclose(self.weights, 1.0 / self.size, rtol=0, atol=1e-12 / self.size)


def _cost_bound(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """B = d pi^2 + sum_a span_a^2, a bound on every pair cost (inf when it overflows).

    d is the position dimension and span_a the momentum range of both clouds
    on axis a.
    """
    bound = mu.x.shape[1] * np.pi ** 2
    if mu.xi is not None:
        with np.errstate(over="ignore"):
            span = np.ptp(np.concatenate([mu.xi, nu.xi]), axis=0)
            bound += (span * span).sum()
    return float(bound)


def _check_same_space(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> None:
    """Both measures live in one phase space in which no sum the W2 solvers form overflows.

    Every pair cost c lies in [0, B] (_cost_bound), with B >= pi^2 as a
    cloud has a position axis.  The sums of c and column prices p stay
    below 2 R B, R = AUCTION_MAX_ROUNDS, so B is refused when 2 R B is not
    finite:

    * the auction's first epsilon is at most B / 5, and a bid sets a price
      to at most another price plus B + epsilon, so after its at most R
      rounds every price is at most 1.2 R B, and c + p < 2 R B;
    * the completion declines rather than raise a price past (2 R - 1) B,
      so its sums c + p stay below 2 R B as well.
    """
    if mu.x.shape[1] != nu.x.shape[1]:
        raise ValidationError("position dimensions differ")
    if (mu.xi is None) != (nu.xi is None):
        raise ValidationError("one measure has velocities, the other does not")
    if mu.xi is not None and mu.xi.shape[1] != nu.xi.shape[1]:
        raise ValidationError("velocity dimensions differ")
    if not np.isfinite(2.0 * AUCTION_MAX_ROUNDS * _cost_bound(mu, nu)):
        raise ValidationError("momenta too far apart: the assignment's sums of costs and prices would overflow")


def _squared_costs(mu: EmpiricalMeasure, nu: EmpiricalMeasure, cols: np.ndarray | None = None) -> np.ndarray:
    """Squared product-metric distances of mu's points to every nu point, or to the nu points cols[i].

    cols None gives the all-pairs matrix, shape (len(mu), len(nu)); cols of
    shape (len(mu), k) gives mu point i against the nu points cols[i], shape
    (len(mu), k).  The index pairing is cols = arange(n)[:, None].

    Each position axis adds min(|dx|, 2pi - |dx|)^2, where dx is the
    difference of the two coordinates reduced by % 2pi, and each momentum
    axis then adds dv^2, in that order.  The fold is the geodesic distance
    exactly, with no branch: after % both coordinates lie in [0, 2pi] (2pi
    itself for tiny negative inputs), so |dx| <= 2pi.  For |dx| >= pi,
    2pi - |dx| is computed exactly (Sterbenz's lemma: |dx| / 2 <= 2pi <=
    2 |dx|) and is the smaller value; below pi it rounds to at least pi >
    |dx|.  So every entry is bit-equal to the masked fold that subtracts
    from 2pi only where |dx| > pi.

    Both forms are built in row blocks of about _COST_BLOCK entries, so
    their temporaries stay in cache, and run the same float operations per
    entry, so a cols entry is bit-equal to the all-pairs matrix's entry.
    """
    xa, xb = mu.x % TWO_PI, nu.x % TWO_PI
    width = nu.size if cols is None else cols.shape[1]
    rows = min(mu.size, max(1, _COST_BLOCK // width))
    d = np.empty((mu.size, width))
    s1, s2 = np.empty((rows, width)), np.empty((rows, width))

    def sides(a, b, blk):
        return a[blk, None], (b[None, :] if cols is None else b[cols[blk]])

    for lo in range(0, mu.size, rows):
        blk = slice(lo, lo + rows)
        out = d[blk]
        t1, t2 = s1[: out.shape[0]], s2[: out.shape[0]]
        for a in range(mu.x.shape[1]):
            t = out if a == 0 else t1
            np.subtract(*sides(xa[:, a], xb[:, a], blk), out=t)
            np.abs(t, out=t)
            np.subtract(TWO_PI, t, out=t2)
            np.minimum(t, t2, out=t)
            np.multiply(t, t, out=t)
            if a > 0:
                out += t1
        if mu.xi is not None:
            for a in range(mu.xi.shape[1]):
                np.subtract(*sides(mu.xi[:, a], nu.xi[:, a], blk), out=t1)
                np.multiply(t1, t1, out=t1)
                out += t1
    return d


def cost_matrix_sq(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> np.ndarray:
    """Pairwise squared product-metric distances, shape (len(mu), len(nu))."""
    _check_same_space(mu, nu)
    return _squared_costs(mu, nu)


def _tree_points(mu: EmpiricalMeasure, nu: EmpiricalMeasure):
    """Both clouds as points of one periodic kd-tree box.

    Positions are wrapped into [0, 2pi) on a period of 2pi, and momenta
    shifted into [0, s] on a period of 2s + 1, on which no momentum
    distance wraps.  So the tree's distance is the product metric.  Returns
    (mu points, nu points, box, max s), with max s = 0 without momenta.
    """
    mu_pts, nu_pts = [wrap_positions(mu.x)], [wrap_positions(nu.x)]
    box = [np.full(mu.x.shape[1], TWO_PI)]
    span = 0.0
    if mu.xi is not None:
        lo = np.minimum(mu.xi.min(axis=0), nu.xi.min(axis=0))
        mu_pts.append(mu.xi - lo)
        nu_pts.append(nu.xi - lo)
        s = np.maximum(mu_pts[1].max(axis=0), nu_pts[1].max(axis=0))
        box.append(2.0 * s + 1.0)
        span = float(s.max(initial=0.0))
    return np.hstack(mu_pts), np.hstack(nu_pts), np.concatenate(box), span


def identity_pair_costs(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> np.ndarray | None:
    """Costs of the index pairing of two equal-size uniform clouds when it is provably optimal.

    Returns cost_matrix_sq(mu, nu)'s diagonal, bit for bit, if the identity
    pairing is an optimal assignment, and None when this test cannot show it.

    Proof: u = 0 and v_j = c_jj are dual-feasible (u_i + v_j <= c_ij for all
    i, j) exactly when each nu point's nearest mu point is its own partner,
    and their dual value sum_j c_jj is the identity's cost, so by LP duality
    the identity is optimal (Burkard, Dell'Amico & Martello, Assignment
    Problems, SIAM 2009, sec. 4.1).  With the partner strictly nearest the
    identity is the only optimal assignment, so the assignment solver would
    return it and the same W2 float.

    The nearest neighbours come from a kd-tree on the mu cloud's
    _tree_points.  The tree's distances differ from sqrt(cost_matrix_sq) by
    a few ulps relative (summation order, square root) plus a few ulps of
    max(2pi, s) absolute (the 2pi - |dx| wrap, the momentum shift): below
    5e-15 max(1, s) in all.  So the test declines unless, for every nu
    point, the partner is the nearest and the second-nearest distance is at
    least (1 + 1e-9) times the partner distance plus 1e-12 max(1, s).  Both
    slacks exceed those errors more than a hundredfold, so an accepted
    partner is strictly nearest under cost_matrix_sq's own floats.
    """
    _check_same_space(mu, nu)
    if mu.size != nu.size:
        return None
    mu_pts, nu_pts, box, span = _tree_points(mu, nu)
    dist, idx = cKDTree(mu_pts, boxsize=box).query(nu_pts, k=2)
    if (idx[:, 0] != np.arange(nu.size)).any():
        return None
    if (dist[:, 1] < (1.0 + 1e-9) * dist[:, 0] + 1e-12 * max(1.0, span)).any():
        return None
    return _squared_costs(mu, nu, np.arange(nu.size)[:, None])[:, 0]


def _candidates(mu: EmpiricalMeasure, nu: EmpiricalMeasure, price: np.ndarray):
    """Each mu point's AUCTION_K nu points of smallest cost + price, by a kd-tree on the power-diagram lift.

    nu point j is lifted to (its _tree_points, sqrt(p_j - min p)) and every
    mu point to (its _tree_points, 0), on a lift period of 2 sqrt(max p -
    min p) + 1 that no distance wraps.  So the tree's squared distance from
    mu point i to nu point j is c_ij + p_j - min p, up to the rounding that
    _certified_columns bounds; at zero prices the columns are each row's
    AUCTION_K nearest.  Returns (c, cols, kth, span): cols[i] the AUCTION_K
    columns in ascending order, c[i] their cost_matrix_sq(mu, nu) entries
    from the cols form of _squared_costs, kth[i] the K-th one's tree squared
    distance plus min p, and span the momentum span of _tree_points.  The
    tree's few-ulp distance error can only swap entries that tie to within
    it.
    """
    mu_pts, nu_pts, box, span = _tree_points(mu, nu)
    low = price.min()
    lift = np.sqrt(price - low)
    tree = cKDTree(np.column_stack([nu_pts, lift]), boxsize=np.append(box, 2.0 * lift.max() + 1.0))
    dist, cols = tree.query(np.column_stack([mu_pts, np.zeros(mu.size)]), k=AUCTION_K)
    return _squared_costs(mu, nu, cols), cols, dist[:, -1] * dist[:, -1] + low, span


def _bid(c, cand, price, owner, free, eps) -> np.ndarray:
    """One Jacobi bidding round of the free rows; updates price and owner, returns the rows left free.

    Every free row bids for its best candidate column at cost + price,
    raising that price by its margin over the second best plus eps; each
    column goes to its highest bidder, and its former owner is free again.
    """
    at = np.arange(free.size)
    value = c[free] + price[cand[free]]
    best = value.argmin(axis=1)
    v1 = value[at, best]
    value[at, best] = np.inf
    cols = cand[free, best]
    bid = price[cols] + (value.min(axis=1) - v1) + eps
    order = np.lexsort((-bid, cols))
    first = np.ones(order.size, dtype=bool)
    first[1:] = cols[order[1:]] != cols[order[:-1]]
    win = order[first]
    won = cols[win]
    evicted = owner[won]
    price[won] = bid[win]
    owner[won] = free[win]
    lost = np.ones(free.size, dtype=bool)
    lost[win] = False
    return np.concatenate([free[lost], evicted[evicted >= 0]])


def _auction_prices(c: np.ndarray, cand: np.ndarray, lift=None):
    """Near-optimal column prices and a near-complete assignment, restricted to candidate columns.

    Row i may take the columns cand[i] at costs c[i] (from _candidates at
    zero prices).  A Jacobi forward auction with epsilon scaling (Bertsekas,
    Ann. Oper. Res. 14 (1988)) runs _bid rounds; a phase ends once at most
    AUCTION_FREE_ROWS rows are unassigned, and the next one restarts the
    assignment at a smaller epsilon from the same prices.  lift, if given,
    maps the prices to new candidate arrays (c, cand), as _candidates does
    at those prices; the first phase with epsilon below AUCTION_LIFT_EPS and
    every later one bid on lift(price) in place of the old candidates,
    taken at that first phase's start.  Returns (price, cols) after the
    last phase: row i holds column cols[i], -1 for a free row.

    None when the first phase has not ended after AUCTION_CHECK_ROUNDS
    rounds, whichever candidates it bids on, or when AUCTION_MAX_ROUNDS
    rounds over all phases do not finish.  A first phase stalls like that
    when no assignment of its edges leaves at most AUCTION_FREE_ROWS rows
    free, as when 60 rows share 48 candidate columns.  Of 762 measured
    Loeper cases one first phase got that far, on such a graph, and every
    other one ended within 1235 rounds.
    """
    n = c.shape[0]
    first = True  # no phase has ended yet
    price = np.zeros(n)
    eps = max(float(c.max() - c.min()), AUCTION_EPS_FINAL) / AUCTION_EPS_RATIO
    rounds = 0
    while True:
        if lift is not None and eps < AUCTION_LIFT_EPS:
            c, cand = lift(price)
            lift = None
        owner = np.full(n, -1, dtype=np.intp)
        free = np.arange(n)
        while free.size > AUCTION_FREE_ROWS:
            if rounds == AUCTION_MAX_ROUNDS or (first and rounds == AUCTION_CHECK_ROUNDS):
                return None
            rounds += 1
            free = _bid(c, cand, price, owner, free, eps)
        first = False
        if eps <= AUCTION_EPS_FINAL:
            cols = np.full(n, -1, dtype=np.intp)
            cols[owner[owner >= 0]] = np.flatnonzero(owner >= 0)
            return price, cols
        eps = max(eps / AUCTION_EPS_RATIO, AUCTION_EPS_FINAL)


def _complete(c: np.ndarray, cand: np.ndarray, price: np.ndarray, cols: np.ndarray, cap: float):
    """An assignment on the candidate graph completed along shortest augmenting paths, or None.

    None when a free row has no path, or when its path would raise a price
    past cap.

    Row i holds column cols[i] (-1 if free).  A row is freed first when that
    column is not among its candidates cand[i], or when c + p there exceeds
    its cheapest candidate's by more than 2 AUCTION_EPS_FINAL (an
    epsilon-slackness the last auction phase, on staler candidates, did not
    give).  Each free row i0 in turn runs Dijkstra (scipy's csgraph) on a
    graph of the rows plus one node per free column: row i reaches its
    candidate column j at (c_ij + p_j) - (c_i,own + p_own), clipped at 0
    (the auction's epsilon-slackness leaves it at least -epsilon), where own
    is the column i holds, or for i0 its cheapest candidate.  Reaching a
    held column means reaching its owner, who must then move on.  The
    nearest free column, at distance D, ends the path; each row on it moves
    one column down the path, and every column j reached at d_j < D gets
    p_j += D - d_j, the Hungarian price update (Jonker & Volgenant,
    Computing 38 (1987)) that makes the moved edges tight.  Prices only
    rise.  The clipping may leave the result short of optimal;
    _certified_columns measures by how much.  Returns (slot, price): row i
    holds column cand[i, slot[i]].

    Each search stops at a distance limit L: it starts at the mean cost of
    the rows' cheapest candidates (the scale of one step of a path) and
    grows 8-fold until a free column lies within it.  A limit of at least
    the node count times the largest weight cuts no path, so the search
    runs without one from there on, and a row with no path still ends the
    completion.  Dijkstra settles nodes in the order of their distances and
    a limit only leaves out those beyond it, so every node within L gets
    the distance and predecessor of an unlimited search; the nodes beyond
    (inf here) lie beyond D and get no price rise either way.  So slot and
    price are those of unlimited searches, bit for bit, and on 4096-point
    clouds most searches settle a few hundred of the 4100 nodes.
    """
    from scipy.sparse.csgraph import dijkstra  # here, so a run that never completes an auction does not load csgraph

    n, k = cand.shape
    rows = np.arange(n)
    hit = cand == cols[:, None]
    slot = hit.argmax(axis=1)
    value = c + price[cand]
    cols = np.where(hit.any(axis=1) & (value[rows, slot] - value.min(axis=1) <= 2.0 * AUCTION_EPS_FINAL), cols, -1)
    node = np.full(n, -1, dtype=np.int32)          # the graph node that reaching column j reaches
    node[cols[cols >= 0]] = np.flatnonzero(cols >= 0)
    free = np.flatnonzero(node < 0)
    node[free] = n + np.arange(free.size)
    price = price.copy()
    scale = float(c.min(axis=1).mean())
    indptr = np.append(np.arange(0, n * k + 1, k), np.full(free.size, n * k)).astype(np.int32)
    for i0 in np.flatnonzero(cols < 0):
        weight = price[cand]
        weight += c
        own = weight[rows, slot]
        own[i0] = weight[i0].min()
        weight -= own[:, None]
        np.maximum(weight, 0.0, out=weight)
        bound = float(weight.max()) * (n + free.size)
        graph = sparse.csr_matrix((weight.ravel(), node[cand].ravel(), indptr), shape=(n + free.size,) * 2)
        limit = scale if 0.0 < scale < bound else np.inf
        while True:
            dist, pred = dijkstra(graph, indices=i0, return_predecessors=True, limit=limit)
            end = n + int(dist[n:].argmin())
            reach = dist[end]
            if np.isfinite(reach) or limit == np.inf:
                break
            limit = 8.0 * limit if 8.0 * limit < bound else np.inf
        if not reach <= cap - price.max():  # no path, or a price rise past the cap
            return None
        price += np.maximum(reach - dist[node], 0.0)
        i, j = pred[end], free[end - n]
        while True:
            moved = cols[i]
            node[j], cols[i], slot[i] = i, j, (cand[i] == j).argmax()
            if i == i0:
                break
            i, j = pred[i], moved
    return slot, price


def _certified_columns(c: np.ndarray, cand: np.ndarray, kth: np.ndarray, span: float, slot: np.ndarray, price: np.ndarray):
    """An optimal assignment's columns from the edges LP duality leaves, or None when the proof declines.

    cand[i] are row i's AUCTION_K columns of smallest c_ij + q_j under
    earlier prices q <= price, c their costs (from _candidates, which also
    gave kth and span), and row i holds column cand[i, slot[i]] of a
    full assignment sigma.  Write r_ij = c_ij + p_j - u_i for the reduced
    costs of the dense problem at the given prices p.  Every column j
    outside cand[i] has c_ij + p_j >= c_ij + q_j >= kth[i], the tree's
    K-th value, so u_i = min(c_ij + p_j over cand[i], kth[i]) less a
    margin m makes every r_ij >= 0, and (u, -p) is feasible for the
    assignment problem's dual.  With S = sum_i r_i,sigma(i) (the gap
    between sigma's cost and that dual's value), every optimal assignment
    tau has sum_i r_i,tau(i) <= S, so it uses only edges with r_ij <= S.  If
    every row has kth[i] - u_i > S, all such edges are among cand: those
    with r_ij <= S go to scipy's min_weight_full_bipartite_matching
    (Jonker & Volgenant's sparse LAPJV) with weights r_ij, which are
    positive, and its assignment is optimal for the dense problem.
    Otherwise None.

    Margin: the tree's squared distances differ from the c_ij + q_j floats
    by a few ulps of max(1, s) (1 + max(c + p)) (the wrap and the momentum
    shift of _tree_points, whose span is s, the lift's square root, the
    tree's sums), and c + p rounds once.  m is 1e-12 times that scale, over
    a hundred times those errors; S is taken up by 1e-9 relative plus n m,
    which covers its rounding, and the K-th test and the kept edges carry
    one more m.  Every row keeps its sigma edge, so a full matching exists.
    The weights round twice per entry, so the returned assignment's cost
    exceeds the minimum by at most n 2^-51 (max c + max p).
    """
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    n = c.shape[0]
    rows = np.arange(n)
    f = c + price[cand]
    margin = CERT_MARGIN * max(1.0, span) * (1.0 + float(f.max()))
    kth = kth[:, None]
    u = np.minimum(f.min(axis=1, keepdims=True), kth) - margin
    reduced = f - u
    gap = float(reduced[rows, slot].sum()) * (1.0 + 1e-9) + n * margin
    if (kth - u <= gap + margin).any():
        return None
    keep = reduced <= gap + margin
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    graph = sparse.csr_matrix((reduced[keep], cand[keep], indptr), shape=(n, n))
    return min_weight_full_bipartite_matching(graph)[1]


def _sparse_assignment(mu: EmpiricalMeasure, nu: EmpiricalMeasure):
    """An optimal assignment's columns from the auction, its completion and the certificate, or None.

    None when the auction, a completion or CERT_PASSES certificates
    decline.  Every candidate set is one _candidates query: each row's
    AUCTION_K columns of smallest cost + price.  The auction starts on the
    query at zero prices, each row's nearest columns, and its lift replaces
    them with the query at the prices it has reached.  Each of up to
    CERT_PASSES passes takes one query, whose columns are the candidates of
    both the completion and the certificate.  The first pass reuses the
    lift's query: prices only rise after it, which is all
    _certified_columns asks of its query.  A pass after a declined proof
    starts from the last assignment, and its fresh query at the current
    prices sees the columns that the completion's price rises made
    cheapest.
    """
    cap = (2.0 * AUCTION_MAX_ROUNDS - 1.0) * _cost_bound(mu, nu)  # see _check_same_space
    queries = []

    def lift(price):
        queries.append(_candidates(mu, nu, price))
        return queries[-1][:2]

    auction = _auction_prices(*_candidates(mu, nu, np.zeros(nu.size))[:2], lift=lift)
    if auction is None:
        return None
    price, cols = auction
    for _ in range(CERT_PASSES):
        c, cand, kth, span = queries.pop() if queries else _candidates(mu, nu, price)
        done = _complete(c, cand, price, cols, cap)
        if done is None:
            return None
        slot, price = done
        proof = _certified_columns(c, cand, kth, span, slot, price)
        if proof is not None:
            return proof
        cols = cand[np.arange(mu.size), slot]
    return None


def w2_assignment(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """W2 of two equal-size uniform clouds by an optimal assignment, with no identity certificate tried.

    Above 2 AUCTION_K points _sparse_assignment tries a solve that builds
    no n x n array.  When it declines, and on clouds of at most 2 AUCTION_K
    points, scipy's linear_sum_assignment solves cost_matrix_sq(mu, nu) as
    it is.  W2 is the root mean of the index-pair costs at the assignment,
    the floats the matrix holds there.  Ties break deterministically for a
    given input.
    """
    _check_same_space(mu, nu)
    cols = _sparse_assignment(mu, nu) if mu.size > 2 * AUCTION_K else None
    if cols is None:
        _, cols = linear_sum_assignment(cost_matrix_sq(mu, nu))  # rows come back as arange(n) on a square matrix
    return float(np.sqrt(_squared_costs(mu, nu, cols[:, None]).mean()))


def w2_exact(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Exact W2 between two equally weighted clouds of one size.

    identity_pair_costs is tried first: when it proves the index pairing
    optimal, W2 is the root mean of the pair costs, the float the
    assignment solver would give, and no cost matrix is built.  Otherwise
    the clouds go to w2_assignment.  Tie-breaking is deterministic for a
    given input.  Any other pair, of unequal sizes or weights, is a
    ValidationError.
    """
    if not (mu.size == nu.size and mu.is_uniform() and nu.is_uniform()):
        raise ValidationError(f"exact W2 needs two equally weighted clouds of one size (got {mu.size} and {nu.size} points)")
    pair = identity_pair_costs(mu, nu)
    if pair is not None:
        return float(np.sqrt(pair.mean()))
    return w2_assignment(mu, nu)


# ----------------------------------------------------------------------
# the coupling functional and its bound
# ----------------------------------------------------------------------

def coupling_Q(cloud) -> float:
    """Half the weighted mean squared phase-space gap between the paired flows.

    The gaps are cost_matrix_sq(vp, vm)'s diagonal, bit for bit, so 2Q is
    the index pairing's transport cost in the floats W2 is read from, and
    an upper bound for W2^2.  The flows must be as close as W2 requires
    (_check_same_space), so no gap overflows.
    """
    vp = EmpiricalMeasure(cloud.x_vp, cloud.xi_vp, cloud.weights)
    vm = EmpiricalMeasure(cloud.x_vm, cloud.xi_vm, cloud.weights)
    _check_same_space(vp, vm)
    return float(0.5 * (vp.weights * _squared_costs(vp, vm, np.arange(vm.size)[:, None])[:, 0]).sum())


# ----------------------------------------------------------------------
# density sampling and the H^-1 vs W2 inequality
# ----------------------------------------------------------------------

def rejection_sample_positions(
    rho: SpectralField,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw n positions from a probability density on the torus.

    Uniform proposals accepted against sup_grid rho; aborts if the observed
    acceptance rate collapses below EFFICIENCY_FLOOR.
    """
    if not rho.is_scalar:
        raise ValidationError("sampling expects a scalar density")
    dim = rho.dim
    sup = rho.to_grid().max() * (1.0 + 1e-9)
    if sup <= 0:
        raise ValidationError("density has non-positive supremum")
    out = np.empty((n, dim))
    filled = 0
    proposed = 0
    while filled < n:
        batch = max(1024, int((n - filled) * sup * 1.3))
        pts = rng.uniform(0.0, TWO_PI, (batch, dim))
        vals = rho.evaluate_at(pts)[:, 0]
        accept = rng.uniform(0.0, sup, batch) < vals
        take = min(accept.sum(), n - filled)
        out[filled : filled + take] = pts[accept][:take]
        filled += take
        proposed += batch
        if proposed > 10_000 and filled / proposed < EFFICIENCY_FLOOR:
            raise ValidationError(
                f"rejection sampling efficiency {filled / proposed:.2e} below {EFFICIENCY_FLOOR}"
            )
    return out


def loeper_check(
    rho1: SpectralField,
    rho2: SpectralField,
    n_samples: int,
    seed: int,
    slack: float = 0.10,
) -> tuple[float, float, bool]:
    """Monte-Carlo check of ||grad psi1 - grad psi2||_L2 <= max ||rho_i||_inf^(1/2) W2(rho1, rho2).

    The left side is exact (Poisson solve + Parseval); W2 is estimated by
    exact assignment between n_samples draws from each density, and the
    stated slack covers the sampling error.  Returns (lhs, rhs, pass).
    """
    n_grid = padded_grid_size(rho1.cutoff)
    g1, g2 = rho1.to_grid(n_grid), rho2.to_grid(n_grid)
    if g1.min() <= 0 or g2.min() <= 0:
        raise ValidationError("densities must be positive for the inequality check")
    psi1, psi2 = solve_poisson(rho1), solve_poisson(rho2)
    lhs = l2_norm(gradient(psi1) - gradient(psi2))
    rng = np.random.default_rng(seed)
    x1 = rejection_sample_positions(rho1, n_samples, rng)
    x2 = rejection_sample_positions(rho2, n_samples, rng)
    w2 = w2_exact(EmpiricalMeasure.uniform(x1), EmpiricalMeasure.uniform(x2))
    rhs = float(np.sqrt(max(g1.max(), g2.max())) * w2)
    return lhs, rhs, bool(lhs <= rhs * (1.0 + slack))
