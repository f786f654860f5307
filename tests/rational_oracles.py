"""Brute-force oracles in exact rational arithmetic.

These enumerate the full outcome space of the small conditional tests with
``fractions.Fraction`` so the fast log-space implementations can be checked
against exact values.  They share no code with the package.
"""

from fractions import Fraction
from itertools import accumulate, groupby
from math import comb


def binomial_pmf_exact(total: int) -> list[Fraction]:
    denom = 2**total
    return [Fraction(comb(total, k), denom) for k in range(total + 1)]


def hypergeom_pmf_exact(n1: int, n2: int, m_obs: int):
    """PMF of the table count over its range; returns (lo, pmf)."""
    lo = max(0, m_obs - n2)
    hi = min(n1, m_obs)
    denom = comb(n1 + n2, m_obs)
    pmf = [
        Fraction(comb(n1, k) * comb(n2, m_obs - k), denom) for k in range(lo, hi + 1)
    ]
    return lo, pmf


def pvalues_exact(pmf: list[Fraction], sided: str) -> list[Fraction]:
    """Exact p-value of every outcome; sided is "one" or "two".

    One-sided, the lower tail.  Two-sided, the total probability of the
    outcomes at most as likely: walking one sort of the PMF in increasing
    order, each run of equal probabilities gets the sum up to its end.
    """
    if sided == "one":
        return list(accumulate(pmf))
    out = [Fraction(0)] * len(pmf)
    acc = Fraction(0)
    by_pmf = sorted(range(len(pmf)), key=pmf.__getitem__)
    for q, ties in groupby(by_pmf, key=pmf.__getitem__):
        ties = list(ties)
        acc += q * len(ties)
        for k in ties:
            out[k] = acc
    return out


def null_distribution_exact(pmf: list[Fraction], sided: str):
    """Exact p-value support and masses; returns (support, mass) lists."""
    pvals = pvalues_exact(pmf, sided)
    mass: dict[Fraction, Fraction] = {}
    for p, q in zip(pvals, pmf):
        mass[p] = mass.get(p, Fraction(0)) + q
    support = sorted(mass)
    return support, [mass[p] for p in support]
