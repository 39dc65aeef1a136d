from fractions import Fraction
from math import factorial

import pytest

from blockperm import symchars
from blockperm.permgrp import PermGroup


def inner_product(n, chi, psi):
    """<chi, psi> over S_n for class functions given as value lists aligned
    with partitions(n); exact Fraction."""
    acc = Fraction(0)
    for mu, a, b in zip(symchars.partitions(n), chi, psi):
        acc += Fraction(symchars.class_size(mu) * a * b)
    return acc / factorial(n)


def test_partitions_count_and_order():
    parts = symchars.partitions(6)
    assert len(parts) == 11
    assert parts[0] == (6,)
    assert parts[-1] == (1,) * 6
    # descending lex
    assert parts == sorted(parts, reverse=True)


def test_hook_partitions():
    assert symchars.hooks(4) == [(4,), (3, 1), (2, 1, 1), (1, 1, 1, 1)]


def test_dimension_hook_length_formula():
    assert symchars.dimension((7,)) == 1
    assert symchars.dimension((4, 3)) == 14
    assert symchars.dimension((5, 1, 1)) == 15
    # dimensions square-sum to n!
    total = sum(symchars.dimension(l) ** 2 for l in symchars.partitions(5))
    assert total == 120


def test_conjugate_partition():
    assert symchars.conjugate((4, 2, 1)) == (3, 2, 1, 1)
    for lam in symchars.partitions(6):
        assert symchars.conjugate(symchars.conjugate(lam)) == lam


@pytest.mark.parametrize("n", range(2, 8))
def test_character_table_orthogonality(n):
    parts, classes, table = symchars.character_table(n)
    for i, lam in enumerate(parts):
        for j in range(i, len(parts)):
            ip = inner_product(n, table[i], table[j])
            assert ip == (1 if i == j else 0)


def test_class_sizes_sum_to_group_order():
    parts = symchars.partitions(6)
    assert sum(symchars.class_size(mu) for mu in parts) == 720


def test_p_core_examples():
    # (2,1) has no 2-hook (hook lengths 3,1,1), so it is its own 2-core
    assert symchars.p_core((2, 1), 2) == (2, 1)
    assert symchars.p_core((4, 2, 1), 7) == (4, 2, 1)
    assert symchars.p_core((7,), 7) == ()
    # hooks of n=p all share the empty p-core (the principal block)
    for lam in symchars.hooks(5):
        assert symchars.p_core(lam, 5) == ()


def test_same_block():
    assert symchars.same_block((7,), (5, 1, 1), 7)
    assert not symchars.same_block((4, 2, 1), (7,), 7)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_sylow_multiplicity_matches_oracle(p):
    for i in range(p):
        assert symchars.sylow_multiplicity(p, i) == \
            symchars.sylow_multiplicity_oracle(p, i)


def test_printed_formula_discrepancy_at_7_2():
    assert symchars.sylow_multiplicity(7, 2) == 3
    assert symchars.sylow_multiplicity_printed(7, 2) == Fraction(16, 7)


def test_sylow_multiplicity_known_values():
    assert [symchars.sylow_multiplicity(7, i) for i in range(7)] == \
        [1, 0, 3, 2, 3, 0, 1]
    assert [symchars.sylow_multiplicity(5, i) for i in range(5)] == \
        [1, 0, 2, 0, 1]


def test_perm_character_multiplicities_sum_to_index():
    n = 6
    h = PermGroup.sylow_of_symmetric(n, 3)
    mult = symchars.perm_character_multiplicities(n, h)
    total = sum(c * symchars.dimension(lam) for lam, c in mult.items())
    assert total == 720 // h.order()
    # the trivial character appears exactly once (transitive... on cosets)
    assert mult[(n,)] == 1


def test_perm_character_multiplicities_regular():
    n = 5
    h = PermGroup.symmetric(n).trivial_subgroup()
    mult = symchars.perm_character_multiplicities(n, h)
    for lam, c in mult.items():
        assert c == symchars.dimension(lam)


def test_symchars_checks_run_under_python_O(failure_kinds_under_O):
    """Mismatched sizes and hook indices are bad input; with the character
    values or binomials replaced by wrong ones, the integrality
    certificates fire."""
    assert failure_kinds_under_O("""
        from blockperm import symchars
        from blockperm.permgrp import PermGroup
        print(kind(lambda: symchars.mn_value((2, 1), (2,))))
        print(kind(lambda: symchars.sylow_multiplicity(5, 5)))
        symchars.comb = lambda a, b: 1
        print(kind(lambda: symchars.sylow_multiplicity(5, 1)))
        symchars.mn_value = lambda lam, mu: int(mu == (1,) * sum(mu))
        print(kind(lambda: symchars.sylow_multiplicity_oracle(5, 1)))
        print(kind(lambda: symchars.perm_character_multiplicities(
            3, PermGroup.symmetric(3))))
        """) == ["value", "value", "cert", "cert", "cert"]
