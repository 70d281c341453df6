"""Independent reference implementations used to check the library.

Everything here is deliberately naive: exhaustive enumeration and direct
counting, no shared code with the package beyond numpy. Slow but obviously
correct on small inputs.
"""

import itertools

import numpy as np


def path_sum_fpt(P, i, j, horizon):
    """First-passage probabilities by exhaustive path enumeration.

    f(n) sums the weight of every path i -> k1 -> ... -> k_{n-1} -> j whose
    interior states all differ from j. Exponential in the horizon; keep
    K <= 5 and horizon <= 7.
    """
    P = np.asarray(P, dtype=float)
    K = P.shape[0]
    interior = [k for k in range(K) if k != j]
    out = np.zeros(horizon)
    out[0] = P[i, j]
    for n in range(2, horizon + 1):
        total = 0.0
        for path in itertools.product(interior, repeat=n - 1):
            w = P[i, path[0]]
            for a, b in zip(path, path[1:]):
                if w == 0.0:
                    break
                w *= P[a, b]
            total += w * P[path[-1], j]
        out[n - 1] = total
    return out


def reachable_by_powers(P, i, j, via_at_least_one_step=True):
    """Whether j is reachable from i, by scanning powers of the support matrix."""
    A = (np.asarray(P) > 0).astype(int)
    K = A.shape[0]
    acc = A.copy()
    power = A.copy()
    for _ in range(K - 1):
        power = (power @ A > 0).astype(int)
        acc = acc | power
    if via_at_least_one_step:
        return bool(acc[i, j])
    return i == j or bool(acc[i, j])


def tabulate_transitions(rows):
    """Row-conditional frequencies by direct counting.

    ``rows`` is an iterable of (state_from_index, state_to_index, weight)
    over a fixed 7-state space. Returns (matrix, row_weights) with uniform
    rows where nothing departs.
    """
    flows = np.zeros((7, 7))
    for i, j, w in rows:
        flows[i, j] += w
    row_w = flows.sum(axis=1)
    out = np.full((7, 7), 1.0 / 7)
    for i in range(7):
        if row_w[i] > 0:
            out[i] = flows[i] / row_w[i]
    return out, row_w


def geometric_fpt(q, horizon):
    """Closed-form passage law for a 2-state chain that fires with rate q."""
    n = np.arange(1, horizon + 1)
    return q * (1.0 - q) ** (n - 1)


def series_by_loop(P, i, j, tol, cap):
    """The passage i -> j summed one term at a time in plain Python floats.

    Steps the vector recursion F(n) = P~ F(n-1) (P with column j zeroed)
    and adds f(n) and n f(n) in order of n, while n < cap and the unpassed
    mass 1 - sum f exceeds tol. Returns (n, sum of f, sum of n f, [f(1)..f(n)]).
    """
    P = np.asarray(P, dtype=float)
    taboo = P.copy()
    taboo[:, j] = 0.0
    fvec = P[:, j].copy()
    terms = [float(fvec[i])]
    total = mean = terms[0]
    while len(terms) < cap and 1.0 - total > tol:
        fvec = taboo @ fvec
        terms.append(float(fvec[i]))
        total += terms[-1]
        mean += len(terms) * terms[-1]
    return len(terms), total, mean, terms
