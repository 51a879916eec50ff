"""Window chains against a closed-form Hilbert series.

In ``UWindow(n, d, M)`` every row of every chain piece F_k is homogeneous in
the total letter count, and the number of its rows of total t is
sum_{s = k..d} c(t, s), where

    sum c(t, s) u^t v^s = prod_{l >= 1} (1 - u^l v^(l - 1))^(-W(n, l))

and W is the Witt number: the PBW count of products of Lyndon elements,
whose length-l ones have total l and star degree l - 1.  The oracle below
multiplies out that product with ``witt_number`` alone, with no monomial
enumeration and no elimination, so it is an independent path to the claim
that F_k is the star >= k tail of the window.  Equal ranks alone do not make
the spans equal; the small-shape property also checks that the tail lies
inside F_k.
"""

from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonenv.freelie import witt_number
from poissonenv.quantize import UWindow


def hilbert_coefficients(n_gens, max_total, max_star):
    """c[t][s] for t <= max_total and s <= max_star, from the product."""
    c = [[0] * (max_star + 1) for _ in range(max_total + 1)]
    c[0][0] = 1
    for length in range(1, max_total + 1):
        w = witt_number(n_gens, length)
        if w == 0 or length - 1 > max_star:
            continue
        # multiply by (1 - x)^(-w) = sum_j comb(w + j - 1, j) x^j, x = u^l v^(l-1)
        new = [[0] * (max_star + 1) for _ in range(max_total + 1)]
        for t in range(max_total + 1):
            for s in range(max_star + 1):
                if not c[t][s]:
                    continue
                j = 0
                dt, ds = t, s
                while dt <= max_total and ds <= max_star:
                    new[dt][ds] += comb(w + j - 1, j) * c[t][s]
                    j, dt, ds = j + 1, dt + length, ds + length - 1
        c = new
    return c


def expected_piece(n_gens, d, max_total, k):
    """{t: rows of total t in F_k}, nonzero entries only."""
    c = hilbert_coefficients(n_gens, max_total, d)
    out = {t: sum(c[t][k:]) for t in range(max_total + 1)}
    return {t: r for t, r in out.items() if r}


def piece_by_total(win, ech):
    return dict(Counter(win.totals[col] for col in ech.rows))


@pytest.mark.parametrize(
    "shape, levels, ranks",
    [
        ((2, 2, 14), 4, [433, 313, 222, 0, 0]),
        ((3, 1, 12), 3, [1313, 858, 0, 0]),
        ((3, 2, 11), 3, [3064, 2700, 2040, 0]),
        ((2, 2, 20), 4, None),
    ],
)
def test_large_window_chains_match_the_hilbert_series(shape, levels, ranks):
    win = UWindow(*shape)
    chain = win.filtration(levels)
    want = [expected_piece(*shape, k) for k in range(levels + 1)]
    assert [piece_by_total(win, ech) for ech in chain] == want
    if ranks is not None:
        assert [sum(piece.values()) for piece in want] == ranks


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 7))
def test_small_window_chains_are_the_star_tail(n_gens, d, max_total):
    max_total = min(max_total, 9 - 2 * n_gens)
    win = UWindow(n_gens, d, max_total)
    chain = win.filtration(d + 2)
    for k, ech in enumerate(chain):
        assert piece_by_total(win, ech) == expected_piece(n_gens, d, max_total, k), k
        tail = win.poisson_span([m for m in win.monomials if m.star_degree >= k])
        assert tail.rank == ech.rank
        assert all(ech.contains(row) for row in tail.basis()), k
