import ast
from pathlib import Path

import numpy as np
import pytest

import lrlab.characters
import lrlab.primes
from lrlab.characters import (
    GENERATORS, DirichletCharacter, character_group, euler_phi, generator_character, kronecker_character,
)
from lrlab.errors import InvalidArgumentError, LrlabError
from lrlab.lseries import prime_class_sum
from lrlab.modforms import tau_exact
from lrlab.multfn import count_f, get_case
from scalar_reference import character_values, kronecker_symbol, multiplicative_order, totient


class TestGeneratorCharacter:
    def test_chi_c_mod5_values(self):
        # chi_c(2) = i forces the rest by multiplicativity
        chi = character_values(5, generator_character(5, 1).index)
        assert chi[2] == pytest.approx(1j)
        assert chi[4] == pytest.approx(-1)
        assert chi[3] == pytest.approx(-1j)
        assert chi[1] == 1
        assert chi[0] == 0

    def test_chi_5_mod5(self):
        chi5 = generator_character(5, 2)
        assert character_values(5, chi5.index)[2] == pytest.approx(-1)
        assert 2 * chi5.index % euler_phi(5) == 0  # real
        # chi_c^2 = chi_5: a power is index arithmetic
        assert generator_character(5, 2 * generator_character(5, 1).index) is chi5

    def test_mod691_index_345_is_quadratic(self):
        vals = character_values(691, generator_character(691, 345).index)
        # all values on the unit group are ±1, matching Euler's criterion
        for r in (2, 3, 5, 100, 690):
            euler = pow(r, 345, 691)
            expected = 1 if euler == 1 else -1
            assert vals[r].real == pytest.approx(expected)
            assert abs(vals[r].imag) < 1e-12

    def test_generators_have_full_order(self):
        # against a gcd count: euler_phi is the generator's cycle, so it would not see a bad g
        for m, g in GENERATORS.items():
            assert multiplicative_order(g, m) == totient(m), m

    def test_euler_phi_is_the_unit_group_size(self):
        for m in GENERATORS:
            assert euler_phi(m) == totient(m) == len(character_group(m)), m

    def test_euler_phi_unsupported_modulus(self):
        with pytest.raises(InvalidArgumentError):
            euler_phi(9)


class TestKroneckerCharacter:
    def test_values(self):
        def value(d, r):
            return character_values(-d, kronecker_character(d).index)[r]

        assert value(-3, 2) == pytest.approx(-1)  # 2 is a non-residue mod 3
        assert value(-4, 3) == pytest.approx(-1)
        assert value(-23, 2) == pytest.approx(1)  # -23 = 1 (mod 8)

    def test_values_are_exact(self):
        for d in (-3, -4, -7, -23):
            chi = character_values(-d, kronecker_character(d).index)
            assert chi[0] == 0 and all(chi[r] == kronecker_symbol(d, r) for r in range(1, abs(d))), d

    def test_is_the_quadratic_group_member(self):
        for d in (-3, -4, -7, -23):
            assert kronecker_character(d) is character_group(-d)[euler_phi(-d) // 2]

    def test_odd_parity(self):
        # chi(-1) = (-1)^j, since -1 = g^(phi/2)
        for d in (-3, -4, -7, -23):
            j = kronecker_character(d).index
            assert j % 2 == 1
            assert character_values(-d, j)[-d - 1] == -1

    def test_unsupported(self):
        with pytest.raises(InvalidArgumentError):
            kronecker_character(-11)


class TestCharacterGroup:
    def test_group_sizes(self):
        assert len(character_group(5)) == 4
        assert len(character_group(691)) == 690
        assert len(character_group(7)) == 6

    def test_principal_is_first(self):
        for m in (3, 4, 5, 7, 23):
            group = character_group(m)
            assert group[0].principal
            assert not any(c.principal for c in group[1:])

    def test_exactly_one_real_nonprincipal_mod7(self):
        group = character_group(7)
        real = [c for c in group[1:] if 2 * c.index % euler_phi(7) == 0]
        assert len(real) == 1
        assert real[0] is kronecker_character(-7)

    def test_orthogonality(self):
        for m in (3, 4, 5, 7, 23, 691):
            for chi in character_group(m)[1:]:
                assert abs(np.sum(character_values(m, chi.index))) <= 1e-12 * m

    def test_multiplicativity_random_pairs(self):
        rng = np.random.default_rng(42)
        for m in (5, 7, 23, 691):
            for chi in (character_group(m)[1], character_group(m)[m // 2]):
                values = character_values(m, chi.index)
                a = rng.integers(0, m, size=10**4)
                b = rng.integers(0, m, size=10**4)
                lhs = values[(a * b) % m]
                rhs = values[a] * values[b]
                assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_conjugate_pairing(self):
        # the conjugate of chi_c^j is chi_c^-j
        group = character_group(23)
        for chi in group[1:]:
            conj = generator_character(23, -chi.index)
            assert conj is group[-chi.index]
            gap = character_values(23, conj.index) - character_values(23, chi.index).conj()
            assert np.max(np.abs(gap)) <= 1e-15

    def test_unsupported_modulus(self):
        with pytest.raises(InvalidArgumentError):
            character_group(9)
        with pytest.raises(InvalidArgumentError):
            generator_character(9, 1)

    def test_group_is_built_once(self):
        group = character_group(691)
        assert character_group(691) is group
        assert isinstance(group, tuple)
        assert group[-1] is group[689] is generator_character(691, 689)

    def test_a_character_is_its_modulus_and_index(self):
        chi = generator_character(23, 5)
        assert (chi.modulus, chi.index, chi.principal) == (23, 5, False)
        assert [a for a in dir(chi) if not a.startswith("_")] == ["index", "modulus", "principal"]

    @pytest.mark.parametrize(
        "fields", [(9, 1), (10**6, 1), (5, 4), (5, -1), ("x", 1), (5, True), (5, 1.0), ([5], 1)],
    )
    def test_a_hand_made_character_is_checked(self, fields):
        # lseries trusts a character's fields: a modulus outside GENERATORS once
        # reached a bare KeyError, or a 1e6 x 40 batch, inside l_derivative_at_1
        with pytest.raises(InvalidArgumentError) as raised:
            DirichletCharacter(*fields)
        assert "\n" not in str(raised.value)

    def test_a_character_takes_numpy_integers(self):
        assert DirichletCharacter(np.int64(5), np.int64(2)) == generator_character(5, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: get_case({}),
        lambda: count_f([5], 1000),
        lambda: prime_class_sum([5], [1], 2),
        lambda: generator_character([5], 1),
        lambda: character_group([5]),
        lambda: character_group(5.0),
        lambda: tau_exact([5]),
    ],
)
def test_case_or_modulus_of_the_wrong_kind_is_typed(call):
    # an unhashable case, modulus or n_max, or a float modulus, is rejected before
    # a dict lookup or an lru_cache hashes it: a one-line LrlabError, not a
    # bare TypeError
    with pytest.raises(LrlabError) as raised:
        call()
    assert "\n" not in str(raised.value)


class TestModuleBoundary:
    def test_primes_no_longer_defines_euler_phi(self):
        assert not hasattr(lrlab.primes, "euler_phi")
        assert "euler_phi" not in lrlab.primes.__all__

    def test_characters_imports_nothing_from_primes(self):
        tree = ast.parse(Path(lrlab.characters.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not imported & {"primes", "lrlab.primes"}, imported
