"""Ordinary characters of symmetric groups via the Murnaghan-Nakayama rule.

All values are exact integers; inner products are exact Fractions.  The
module stays small on purpose: partitions, hook data, character values,
p-cores for the block partition of Irr(S_n), and the multiplicities of
hook characters in the permutation character on a Sylow p-subgroup of S_p.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .gfq import CertificateError


def partitions(n, cap=None):
    """All partitions of n in descending lexicographic order."""
    if cap is None:
        cap = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return out


def hooks(n):
    """The hook partitions (n-i, 1^i) of n, for i = 0..n-1."""
    return [(n - i,) + (1,) * i for i in range(n)]


def hook_lengths(lam):
    """Hook length of every cell, as a list of rows."""
    lam = tuple(lam)
    conj = conjugate(lam)
    return [[lam[r] - c + conj[c] - r - 1 for c in range(lam[r])]
            for r in range(len(lam))]


def conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > c) for c in range(lam[0]))


def dimension(lam):
    """Degree of the irreducible character, by the hook length formula."""
    n = sum(lam)
    d = factorial(n)
    for row in hook_lengths(lam):
        for h in row:
            d //= h
    return d


def _strip_removals(lam, length):
    """All (smaller partition, height) from removing a border strip."""
    lam = list(lam)
    out = []
    # beta-numbers: first-column hook lengths, strictly decreasing
    r = len(lam)
    beta = [lam[i] + (r - 1 - i) for i in range(r)]
    bset = set(beta)
    for b in beta:
        nb = b - length
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for b2 in beta if nb < b2 < b)
        newbeta = sorted((set(beta) - {b}) | {nb}, reverse=True)
        mu = [newbeta[j] - (r - 1 - j) for j in range(r)]
        mu = tuple(x for x in mu if x > 0)
        out.append((mu, height))
    return out


@lru_cache(maxsize=None)
def mn_value(lam, mu):
    """Character value chi_lam on the class of cycle type mu (exact int)."""
    lam = tuple(lam)
    mu = tuple(sorted(mu, reverse=True))
    if sum(lam) != sum(mu):
        raise ValueError("partitions of different sizes")
    if not lam:
        return 1
    part = mu[0]
    rest = mu[1:]
    total = 0
    for smaller, height in _strip_removals(lam, part):
        total += (-1) ** height * mn_value(smaller, rest)
    return total


def class_size(mu):
    """Size of the conjugacy class of S_n with cycle type mu."""
    n = sum(mu)
    z = 1
    counts = {}
    for part in mu:
        counts[part] = counts.get(part, 0) + 1
    for part, k in counts.items():
        z *= part ** k * factorial(k)
    return factorial(n) // z


def character_table(n):
    """(row labels, column labels, table) with table[i][j] = chi_i(class_j).

    Rows and columns are both indexed by the partitions of n in descending
    lexicographic order.
    """
    parts = partitions(n)
    table = [[mn_value(lam, mu) for mu in parts] for lam in parts]
    return parts, parts, table


def inner_product(n, chi, psi):
    """<chi, psi> over S_n for class functions given as value lists aligned
    with partitions(n); exact Fraction."""
    parts = partitions(n)
    acc = Fraction(0)
    for mu, a, b in zip(parts, chi, psi):
        acc += Fraction(class_size(mu) * a * b)
    return acc / factorial(n)


def p_core(lam, p):
    """The p-core: remove border strips of length p until none remain."""
    lam = tuple(lam)
    while True:
        removals = _strip_removals(lam, p)
        if not removals:
            return lam
        lam = removals[0][0]


def same_block(lam, mu, p):
    """Nakayama conjecture: chi_lam, chi_mu lie in the same p-block of S_n
    exactly when their p-cores agree."""
    return p_core(lam, p) == p_core(mu, p)


def sylow_multiplicity(p, i):
    """Multiplicity of the hook character chi_{(p-i,1^i)} in the
    permutation character of S_p on the cosets of a Sylow p-subgroup C_p.

    The closed form is (1/p) * (binom(p-1, i) + (p-1) * (-1)^i); the value
    is always an integer and this is checked.
    """
    if not 0 <= i < p:
        raise ValueError("hook index %d outside 0..%d" % (i, p - 1))
    num = comb(p - 1, i) + (p - 1) * (-1) ** i
    if num % p:
        raise CertificateError("multiplicity formula did not produce an "
                               "integer")
    return num // p


def sylow_multiplicity_printed(p, i):
    """The same multiplicity as the formula (1/p)(binom(p-1,i) + (-1)^i)
    reads on the page, kept as an exact Fraction.  It disagrees with the
    averaged character computation in general (first at p=7, i=2), which
    is why sylow_multiplicity carries the (p-1) factor instead."""
    return Fraction(comb(p - 1, i) + (-1) ** i, p)


def sylow_multiplicity_oracle(p, i):
    """Brute-force check: average chi over the subgroup generated by a
    p-cycle, i.e. (chi(1^p) + (p-1) chi(p)) / p."""
    lam = hooks(p)[i]
    val = mn_value(lam, (1,) * p) + (p - 1) * mn_value(lam, (p,))
    q, r = divmod(val, p)
    if r:
        raise CertificateError("averaged character is not an integer")
    return q


def perm_character_multiplicities(n, subgroup):
    """Multiplicity of each chi_lam in the permutation character of S_n on
    the cosets of a subgroup, i.e. (1/|H|) sum over H of chi(cycle type).

    subgroup is a PermGroup of degree n.  Returns a dict keyed by
    partition; values are exact Fractions (always integral, checked).
    """
    elems = subgroup.elements()
    types = [_cycle_type(g, n) for g in elems]
    out = {}
    for lam in partitions(n):
        acc = sum(mn_value(lam, t) for t in types)
        val = Fraction(acc, len(elems))
        if val.denominator != 1:
            raise CertificateError("multiplicity of %r is not an integer"
                                   % (lam,))
        out[lam] = int(val)
    return out


def _cycle_type(perm, n):
    seen = [False] * n
    lens = []
    for s in range(n):
        if seen[s]:
            continue
        c = 0
        x = s
        while not seen[x]:
            seen[x] = True
            x = perm.img[x]
            c += 1
        lens.append(c)
    return tuple(sorted(lens, reverse=True))
