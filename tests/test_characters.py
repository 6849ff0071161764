import numpy as np
import pytest

from lrlab.characters import GENERATORS, character_group, generator_character, kronecker_character
from lrlab.errors import InvalidArgumentError
from lrlab.primes import euler_phi
from scalar_reference import kronecker_symbol, multiplicative_order


class TestGeneratorCharacter:
    def test_chi_c_mod5_values(self):
        # chi_c(2) = i forces the rest by multiplicativity
        chi = generator_character(5, 1)
        assert chi(2) == pytest.approx(1j)
        assert chi(4) == pytest.approx(-1)
        assert chi(3) == pytest.approx(-1j)
        assert chi(1) == 1
        assert chi(0) == 0

    def test_chi_5_mod5(self):
        chi5 = generator_character(5, 2)
        assert chi5(2) == pytest.approx(-1)
        assert chi5.is_real
        # chi_c^2 = chi_5
        assert generator_character(5, 1).power(2) is chi5

    def test_mod691_index_345_is_quadratic(self):
        chi = generator_character(691, 345)
        vals = chi.values
        # all values on the unit group are ±1, matching Euler's criterion
        for r in (2, 3, 5, 100, 690):
            euler = pow(r, 345, 691)
            expected = 1 if euler == 1 else -1
            assert vals[r].real == pytest.approx(expected)
            assert abs(vals[r].imag) < 1e-12

    def test_generators_have_full_order(self):
        for m, g in GENERATORS.items():
            assert multiplicative_order(g, m) == euler_phi(m), m


class TestKroneckerCharacter:
    def test_values(self):
        assert kronecker_character(-3)(2) == pytest.approx(-1)  # 2 is a non-residue mod 3
        assert kronecker_character(-4)(3) == pytest.approx(-1)
        assert kronecker_character(-23)(2) == pytest.approx(1)  # -23 = 1 (mod 8)

    def test_values_are_exact(self):
        for d in (-3, -4, -7, -23):
            chi = kronecker_character(d)
            assert chi(0) == 0 and all(chi(r) == kronecker_symbol(d, r) for r in range(1, abs(d))), d

    def test_is_the_quadratic_group_member(self):
        for d in (-3, -4, -7, -23):
            assert kronecker_character(d) is character_group(-d)[euler_phi(-d) // 2]

    def test_odd_parity(self):
        for d in (-3, -4, -7, -23):
            assert kronecker_character(d).parity == -1

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
        real = [c for c in group[1:] if c.is_real]
        assert len(real) == 1
        assert real[0] is kronecker_character(-7)

    def test_orthogonality(self):
        for m in (3, 4, 5, 7, 23, 691):
            for chi in character_group(m)[1:]:
                assert abs(np.sum(chi.values)) <= 1e-12 * m

    def test_multiplicativity_random_pairs(self):
        rng = np.random.default_rng(42)
        for m in (5, 7, 23, 691):
            for chi in (character_group(m)[1], character_group(m)[m // 2]):
                a = rng.integers(0, m, size=10**4)
                b = rng.integers(0, m, size=10**4)
                lhs = chi.values[(a * b) % m]
                rhs = chi.values[a] * chi.values[b]
                assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_conjugate_pairing(self):
        group = character_group(23)
        for chi in group[1:]:
            conj = chi.conjugate()
            assert conj is group[-chi.index]
            assert np.max(np.abs(conj.values - chi.values.conj())) <= 1e-15

    def test_unsupported_modulus(self):
        with pytest.raises(InvalidArgumentError):
            character_group(9)

    def test_group_is_built_once(self):
        group = character_group(691)
        assert character_group(691) is group
        assert isinstance(group, tuple)
        assert group[-1] is group[689] is generator_character(691, 689)
