import dataclasses
import functools
import itertools
import random

import numpy as np
import pytest

from qecbound import (
    CapabilityError,
    DimensionError,
    ErrorClass,
    PauliString,
    StabilizerCode,
    classify,
    commutes,
    multiply,
    paulis_of_weight,
    syndrome,
    verify_distance,
)

from conftest import pauli_matrix, random_pauli


X = PauliString.from_label("X")
Z = PauliString.from_label("Z")


class TestMultiply:
    def test_x_times_z_is_minus_i_y(self):
        assert multiply(X, Z) == PauliString.from_label("-iY")

    def test_identity_absorbs(self):
        rng = random.Random(7)
        for _ in range(50):
            p = random_pauli(rng, 4)
            assert multiply(PauliString.identity(4), p) == p
            assert multiply(p, PauliString.identity(4)) == p

    def test_squares_to_identity(self):
        p = PauliString.from_label("XZ")
        assert multiply(p, p) == PauliString.identity(2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            multiply(X, PauliString.identity(2))

    def test_matches_matrix_oracle(self):
        rng = random.Random(2024)
        for _ in range(1000):
            n = rng.randint(1, 4)
            p, q = random_pauli(rng, n), random_pauli(rng, n)
            expected = pauli_matrix(p) @ pauli_matrix(q)
            assert np.allclose(pauli_matrix(multiply(p, q)), expected)

    def test_associativity_exact(self):
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.randint(1, 6)
            p, q, r = (random_pauli(rng, n) for _ in range(3))
            assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))


class TestCommutes:
    def test_x_z_anticommute(self):
        assert not commutes(X, Z)

    def test_generators_commute(self):
        # two generators of the 5-qubit code; checked against the dense matrices
        p = PauliString.from_label("XZZXI")
        q = PauliString.from_label("IXZZX")
        mp, mq = pauli_matrix(p), pauli_matrix(q)
        assert np.allclose(mp @ mq, mq @ mp)
        assert commutes(p, q)

    def test_self_commutes(self):
        rng = random.Random(3)
        for _ in range(100):
            p = random_pauli(rng, 5)
            assert commutes(p, p)

    def test_agrees_with_product_order(self):
        rng = random.Random(11)
        for _ in range(1000):
            n = rng.randint(1, 5)
            p, q = random_pauli(rng, n), random_pauli(rng, n)
            assert commutes(p, q) == (multiply(p, q) == multiply(q, p))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            commutes(X, PauliString.identity(3))


@functools.cache
def _one_qubit_product(a: str, b: str) -> tuple[int, str]:
    """(k, c) with a * b = i**k c for one-qubit letters, read off the 2x2 matrices."""
    m = pauli_matrix(PauliString.from_label(a)) @ pauli_matrix(PauliString.from_label(b))
    return next((k, c) for c in "IXYZ" for k in range(4)
                if np.allclose(m, 1j**k * pauli_matrix(PauliString.from_label(c))))


def _letters(p: PauliString) -> str:
    return "".join(p.letter(q) for q in range(p.n))


def _per_qubit_product(p: PauliString, q: PauliString) -> PauliString:
    """p * q by the per-qubit definition: the letters multiply qubit by qubit, phases add."""
    phase, letters = p.phase_power + q.phase_power, ""
    for a, b in zip(_letters(p), _letters(q)):
        k, c = _one_qubit_product(a, b)
        phase, letters = phase + k, letters + c
    return PauliString.from_label(("", "+i", "-", "-i")[phase % 4] + letters)


def _per_qubit_commutes(p: PauliString, q: PauliString) -> bool:
    """An even number of qubits where both letters are non-identity and differ."""
    return sum(a != b and "I" not in (a, b) for a, b in zip(_letters(p), _letters(q))) % 2 == 0


def _every_pauli(n: int):
    for letters in itertools.product("IXYZ", repeat=n):
        for prefix in ("", "+i", "-", "-i"):
            yield PauliString.from_label(prefix + "".join(letters))


class TestAgainstPerQubitDefinition:
    """The packed-bit algebra against the letter-by-letter definition."""

    def test_every_two_qubit_pair(self):
        paulis = list(_every_pauli(2))
        assert len(paulis) == 64
        for p, q in itertools.product(paulis, repeat=2):
            assert multiply(p, q) == _per_qubit_product(p, q)
            assert commutes(p, q) == _per_qubit_commutes(p, q)

    def test_random_five_qubit_strings(self):
        rng = random.Random(17)
        for _ in range(2000):
            p, q = random_pauli(rng, 5), random_pauli(rng, 5)
            product = multiply(p, q)
            assert product == _per_qubit_product(p, q)
            assert str(product) == str(_per_qubit_product(p, q))
            assert hash(product) == hash(_per_qubit_product(p, q))
            assert commutes(p, q) == _per_qubit_commutes(p, q)

    def test_packed_strings_equal_constructed_ones(self):
        for w in (1, 2):
            for p in paulis_of_weight(3, w):
                assert p == PauliString(3, p.x_bits, p.z_bits, 0)
                assert p.weight == w == sum(x or z for x, z in zip(p.x_bits, p.z_bits))
        assert PauliString.single(4, 2, "Y") == PauliString.from_label("IIYI")


class TestFiveQubitCode:
    def test_shape(self, code):
        assert code.n == 5 and code.k == 1
        assert len(code.generators) == 4

    def test_invariants(self, code):
        code.validate()

    def test_distance_three(self, code):
        assert verify_distance(code, 3)

    def test_not_distance_four(self, code):
        assert not verify_distance(code, 4)


class TestSyndrome:
    def test_identity_trivial(self, code):
        assert syndrome(code, PauliString.identity(5)).bits == (0, 0, 0, 0)

    def test_x_on_first_qubit(self, code):
        e = PauliString.single(5, 0, "X")
        assert syndrome(code, e).bits == (0, 0, 0, 1)

    def test_stabilizer_elements_trivial(self, code):
        group = code.stabilizer_group()
        assert len(group) == 16
        for s in group:
            assert syndrome(code, s).is_trivial
            assert classify(code, s) == ErrorClass.STABILIZER_EQUIVALENT

    def test_weight_one_all_detected(self, code):
        errors = list(paulis_of_weight(5, 1))
        assert len(errors) == 15
        for e in errors:
            assert not syndrome(code, e).is_trivial

    def test_dimension_mismatch(self, code):
        with pytest.raises(DimensionError):
            syndrome(code, X)


class TestClassify:
    def test_logical_x(self, code):
        assert classify(code, PauliString.from_label("XXXXX")) == ErrorClass.LOGICAL_X

    def test_logical_z(self, code):
        assert classify(code, PauliString.from_label("ZZZZZ")) == ErrorClass.LOGICAL_Z

    def test_logical_y(self, code):
        y_bar = multiply(PauliString.from_label("XXXXX"), PauliString.from_label("ZZZZZ"))
        assert classify(code, y_bar) == ErrorClass.LOGICAL_Y

    def test_identity(self, code):
        assert classify(code, PauliString.identity(5)) == ErrorClass.STABILIZER_EQUIVALENT

    def test_weight_one_detectable(self, code):
        assert classify(code, PauliString.single(5, 0, "X")) == ErrorClass.DETECTABLE

    def test_constant_on_cosets(self, code):
        rng = random.Random(55)
        group = code.stabilizer_group()
        for _ in range(1000):
            e = random_pauli(rng, 5)
            ref = classify(code, e)
            for s in group:
                assert classify(code, multiply(e, s)) == ref


class TestVerifyDistance:
    def test_trivial_code(self):
        trivial = StabilizerCode(
            n=1,
            k=1,
            generators=(),
            logical_x=(PauliString.from_label("X"),),
            logical_z=(PauliString.from_label("Z"),),
            distance=1,
        )
        trivial.validate()
        assert verify_distance(trivial, 1)

    def test_brute_force_cap(self):
        big = StabilizerCode(
            n=13,
            k=1,
            generators=(),
            logical_x=(PauliString.single(13, 0, "X"),),
            logical_z=(PauliString.single(13, 0, "Z"),),
            distance=1,
        )
        with pytest.raises(CapabilityError):
            verify_distance(big, 1)

    def test_rejects_nonpositive(self, code):
        with pytest.raises(ValueError):
            verify_distance(code, 0)


class TestValidation:
    def test_noncommuting_generators_rejected(self):
        bad = StabilizerCode(
            n=2,
            k=0,
            generators=(PauliString.from_label("XI"), PauliString.from_label("ZI")),
            logical_x=(),
            logical_z=(),
            distance=1,
        )
        with pytest.raises(ValueError, match="commute"):
            bad.validate()

    def test_dependent_generators_rejected(self):
        g = PauliString.from_label("XX")
        bad = StabilizerCode(
            n=2, k=0, generators=(g, g), logical_x=(), logical_z=(), distance=1
        )
        with pytest.raises(ValueError, match="independent"):
            bad.validate()

    def test_phased_generator_rejected(self):
        g = PauliString(2, (1, 1), (0, 0), phase_power=2)
        bad = StabilizerCode(
            n=2, k=0, generators=(g, PauliString.from_label("ZZ")), logical_x=(), logical_z=(), distance=1
        )
        with pytest.raises(ValueError, match="phase"):
            bad.validate()

    @pytest.mark.parametrize("change, message", [
        (lambda c: {"generators": c.generators[:-1]}, "generator count must equal n - k"),
        (lambda c: {"logical_x": ()}, "one logical X and Z per logical qubit"),
        (lambda c: {"generators": (PauliString.from_label("XZZX"),) + c.generators[1:]},
         "generator qubit count mismatch"),
        (lambda c: {"logical_x": (PauliString.single(5, 0, "X"),)}, "logical X .* anticommutes"),
        (lambda c: {"logical_z": (PauliString.single(5, 0, "Z"),)}, "logical Z .* anticommutes"),
        (lambda c: {"logical_x": c.logical_z}, "paired logical X and Z must anticommute"),
    ])
    def test_broken_five_qubit_code_rejected(self, code, change, message):
        code.validate()
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(code, **change(code)).validate()


class TestPauliBasics:
    def test_phase_values(self):
        assert [PauliString(1, (1,), (0,), k).phase for k in range(4)] == [1, 1j, -1, -1j]

    def test_weight(self):
        assert PauliString.from_label("IXYZI").weight == 3

    def test_label_roundtrip(self):
        for label in ("XZZXI", "-iYIZ", "ZZ"):
            assert str(PauliString.from_label(label)) == label

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            PauliString.from_label("XQ")

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            PauliString(2, (1, 2), (0, 0))
        with pytest.raises(ValueError):
            PauliString(2, (1,), (0, 0))

    def test_no_qubits_rejected(self):
        with pytest.raises(ValueError, match="qubit count must be positive"):
            PauliString(0, (), ())
        with pytest.raises(ValueError, match="qubit count must be positive"):
            list(paulis_of_weight(0, 0))

    def test_single_out_of_range(self):
        assert str(PauliString.single(2, 1, "Y")) == "IY"
        with pytest.raises(ValueError, match="qubit 2 out of range for n=2"):
            PauliString.single(2, 2, "X")
