"""Exact Pauli-group algebra in symplectic form, stabilizer codes, syndromes.

An n-qubit Pauli operator is stored as two length-n bit tuples (``x_bits``,
``z_bits``) plus a phase from {+1, +i, -1, -i}:

    P = i**phase_power * O_0 (x) O_1 (x) ... (x) O_{n-1}

with the per-qubit letter determined by (x_bit, z_bit): (0,0)=I, (1,0)=X,
(0,1)=Z, (1,1)=Y.  The phase group is tracked exactly; this is what makes
Y-type logical errors (Y = iXZ) distinguishable.

Qubit positions are 0-based throughout this module, except in the table of
third-order logical errors at its end (EtaEntry, EtaTable, enumerate_eta),
whose site labels are 1-based like the documented generator convention.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from .errors import CapabilityError, DimensionError, UnsupportedOrderError

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}
_PHASE_STR = {0: "", 1: "+i", 2: "-", 3: "-i"}

# Brute-force enumeration bound for verify_distance and related scans.
MAX_BRUTE_FORCE_QUBITS = 12


@dataclass(frozen=True)
class PauliString:
    """Immutable n-qubit Pauli operator with exact phase tracking."""

    n: int
    x_bits: tuple[int, ...]
    z_bits: tuple[int, ...]
    phase_power: int = 0  # exponent k in the scalar i**k

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("qubit count must be positive")
        if len(self.x_bits) != self.n or len(self.z_bits) != self.n:
            raise ValueError("bit vectors must have length n")
        if any(b not in (0, 1) for b in self.x_bits + self.z_bits):
            raise ValueError("bit vectors must contain only 0/1")
        object.__setattr__(self, "phase_power", self.phase_power % 4)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "PauliString":
        return PauliString(n, (0,) * n, (0,) * n, 0)

    @staticmethod
    def from_label(label: str) -> "PauliString":
        """Build from a string like ``"XZZXI"`` or ``"-iXY"``.

        The leftmost letter acts on qubit 0.
        """
        phase = 0
        body = label
        for prefix, power in (("-i", 3), ("+i", 1), ("i", 1), ("-", 2), ("+", 0)):
            if body.startswith(prefix):
                phase = power
                body = body[len(prefix):]
                break
        if not body or any(c not in _LETTER_BITS for c in body):
            raise ValueError(f"invalid Pauli label {label!r}")
        bits = [_LETTER_BITS[c] for c in body]
        return PauliString(
            len(body),
            tuple(x for x, _ in bits),
            tuple(z for _, z in bits),
            phase,
        )

    @staticmethod
    def single(n: int, qubit: int, letter: str) -> "PauliString":
        """Single-qubit letter ('X', 'Y' or 'Z') at 0-based position ``qubit``."""
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        x, z = _LETTER_BITS[letter]
        xs = [0] * n
        zs = [0] * n
        xs[qubit] = x
        zs[qubit] = z
        return PauliString(n, tuple(xs), tuple(zs), 0)

    # -- basic queries ------------------------------------------------------

    @property
    def phase(self) -> complex:
        """The scalar prefactor as a complex number in {1, 1j, -1, -1j}."""
        return (1 + 0j, 1j, -1 + 0j, -1j)[self.phase_power]

    @property
    def weight(self) -> int:
        """Number of qubits acted on non-trivially."""
        return sum(1 for x, z in zip(self.x_bits, self.z_bits) if x or z)

    def letter(self, qubit: int) -> str:
        return _BITS_LETTER[(self.x_bits[qubit], self.z_bits[qubit])]

    def __str__(self) -> str:
        body = "".join(self.letter(q) for q in range(self.n))
        return _PHASE_STR[self.phase_power] + body

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Operator product p*q with exact phase; bit vectors combine by XOR.

    Per qubit, letters are written as i**(x*z) * X**x * Z**z; commuting the
    Z part of p past the X part of q contributes (-1)**(z_p*x_q), and the
    result is renormalized to canonical letter form.
    """
    if p.n != q.n:
        raise DimensionError(f"qubit count mismatch: {p.n} != {q.n}")
    phase = p.phase_power + q.phase_power
    xs = []
    zs = []
    for xp, zp, xq, zq in zip(p.x_bits, p.z_bits, q.x_bits, q.z_bits):
        xr = xp ^ xq
        zr = zp ^ zq
        phase += xp * zp + xq * zq - xr * zr + 2 * (zp * xq)
        xs.append(xr)
        zs.append(zr)
    return PauliString(p.n, tuple(xs), tuple(zs), phase % 4)


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff p and q commute (symplectic inner product is even)."""
    if p.n != q.n:
        raise DimensionError(f"qubit count mismatch: {p.n} != {q.n}")
    acc = 0
    for xp, zp, xq, zq in zip(p.x_bits, p.z_bits, q.x_bits, q.z_bits):
        acc += xp * zq + zp * xq
    return acc % 2 == 0


def _gf2_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over GF(2) of a list of bit rows (xor-basis reduction)."""
    basis: list[int] = []
    for row in rows:
        cur = int("".join(str(b) for b in row), 2) if any(row) else 0
        for pivot in basis:
            cur = min(cur, cur ^ pivot)
        if cur:
            basis.append(cur)
    return len(basis)


class ErrorClass(Enum):
    """Coset of a Pauli error relative to a stabilizer code."""

    STABILIZER_EQUIVALENT = "StabilizerEquivalent"
    LOGICAL_X = "LogicalX"
    LOGICAL_Y = "LogicalY"
    LOGICAL_Z = "LogicalZ"
    DETECTABLE = "Detectable"

    @property
    def is_logical(self) -> bool:
        return self in (ErrorClass.LOGICAL_X, ErrorClass.LOGICAL_Y, ErrorClass.LOGICAL_Z)


@dataclass(frozen=True)
class Syndrome:
    """Anticommutation pattern of an error against the generators."""

    bits: tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return not any(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class StabilizerCode:
    """An [[n, k, d]] stabilizer code given by generators and logical operators."""

    n: int
    k: int
    generators: tuple[PauliString, ...]
    logical_x: tuple[PauliString, ...]
    logical_z: tuple[PauliString, ...]
    distance: int

    def validate(self) -> None:
        """Raise ValueError on any violated structural invariant."""
        if len(self.generators) != self.n - self.k:
            raise ValueError("generator count must equal n - k")
        if len(self.logical_x) != self.k or len(self.logical_z) != self.k:
            raise ValueError("need one logical X and Z per logical qubit")
        for g in self.generators:
            if g.n != self.n:
                raise ValueError("generator qubit count mismatch")
            if g.phase_power != 0:
                raise ValueError("generators must have phase +1")
        for a, b in itertools.combinations(self.generators, 2):
            if not commutes(a, b):
                raise ValueError(f"generators {a} and {b} do not commute")
        if _gf2_rank([g.x_bits + g.z_bits for g in self.generators]) != len(self.generators):
            raise ValueError("generators are not independent")
        for lx, lz in zip(self.logical_x, self.logical_z):
            for g in self.generators:
                if not commutes(lx, g):
                    raise ValueError(f"logical X {lx} anticommutes with generator {g}")
                if not commutes(lz, g):
                    raise ValueError(f"logical Z {lz} anticommutes with generator {g}")
            if commutes(lx, lz):
                raise ValueError("paired logical X and Z must anticommute")

    def stabilizer_group(self) -> list[PauliString]:
        """All 2**(n-k) products of generators, identity first."""
        group = [PauliString.identity(self.n)]
        for g in self.generators:
            group.extend([multiply(e, g) for e in group])
        return group


def five_qubit_code() -> StabilizerCode:
    """The [[5, 1, 3]] code.

    Generator convention (load-bearing for the uncorrectable-error index
    table): the cyclic family XZZXI, IXZZX, XIXZZ, ZXIXZ with qubits
    labeled 1..5 left-to-right (0-based internally), logical X = XXXXX and
    logical Z = ZZZZZ.
    """
    return StabilizerCode(
        n=5,
        k=1,
        generators=(
            PauliString.from_label("XZZXI"),
            PauliString.from_label("IXZZX"),
            PauliString.from_label("XIXZZ"),
            PauliString.from_label("ZXIXZ"),
        ),
        logical_x=(PauliString.from_label("XXXXX"),),
        logical_z=(PauliString.from_label("ZZZZZ"),),
        distance=3,
    )


def syndrome(code: StabilizerCode, e: PauliString) -> Syndrome:
    """Bit g is 1 iff the error anticommutes with generator g."""
    if e.n != code.n:
        raise DimensionError(f"error acts on {e.n} qubits, code has {code.n}")
    return Syndrome(tuple(0 if commutes(e, g) else 1 for g in code.generators))


def classify(code: StabilizerCode, e: PauliString) -> ErrorClass:
    """Coset classification of an error.

    Nonzero syndrome is Detectable.  Trivial-syndrome errors are classified
    by their commutation pattern with the logical operators: anticommuting
    with logical Z flips the X character, with logical X the Z character.
    """
    if not syndrome(code, e).is_trivial:
        return ErrorClass.DETECTABLE
    has_x = any(not commutes(e, lz) for lz in code.logical_z)
    has_z = any(not commutes(e, lx) for lx in code.logical_x)
    if has_x and has_z:
        return ErrorClass.LOGICAL_Y
    if has_x:
        return ErrorClass.LOGICAL_X
    if has_z:
        return ErrorClass.LOGICAL_Z
    return ErrorClass.STABILIZER_EQUIVALENT


def paulis_of_weight(n: int, w: int) -> Iterator[PauliString]:
    """All weight-w phase-free Paulis, in (qubit indices, letters) lexicographic order."""
    for support in itertools.combinations(range(n), w):
        for letters in itertools.product("XYZ", repeat=w):
            xs = [0] * n
            zs = [0] * n
            for q, letter in zip(support, letters):
                xs[q], zs[q] = _LETTER_BITS[letter]
            yield PauliString(n, tuple(xs), tuple(zs), 0)


def verify_distance(code: StabilizerCode, d: int) -> bool:
    """True iff the code has distance exactly d.

    Checks by brute force that no Pauli of weight < d is a trivial-syndrome
    logical operator and that at least one weight-d Pauli is.  Only weights
    up to d need to be enumerated for this question.
    """
    if d < 1:
        raise ValueError("distance must be >= 1")
    if code.n > MAX_BRUTE_FORCE_QUBITS:
        raise CapabilityError(
            f"brute-force distance check limited to n <= {MAX_BRUTE_FORCE_QUBITS}, got n={code.n}"
        )
    for w in range(1, d):
        for p in paulis_of_weight(code.n, w):
            if classify(code, p).is_logical:
                return False
    return any(classify(code, p).is_logical for p in paulis_of_weight(code.n, d))


# -- trivial-syndrome uncorrectable-error table ---------------------------------
#
# A third-order error process deposits one excitation on a single site through
# channel alpha and a correlated pair on two other sites through channel beta.
# The entries are the (alpha, beta, i, j, k) for which sigma^alpha_i
# sigma^beta_j sigma^beta_k commutes with every generator yet acts as a
# logical operator: the lowest-order errors the code cannot see.

CHANNEL_AXES = ("x", "z")


@dataclass(frozen=True)
class EtaEntry:
    """One nonzero table coefficient; j < k, all site labels 1-based."""

    alpha: str
    beta: str
    i: int
    j: int
    k: int
    logical_type: ErrorClass

    def pauli(self, n: int) -> PauliString:
        """The operator sigma^alpha_i sigma^beta_j sigma^beta_k on n qubits."""
        letter = {"x": "X", "z": "Z"}
        p = PauliString.single(n, self.i - 1, letter[self.alpha])
        p = multiply(p, PauliString.single(n, self.j - 1, letter[self.beta]))
        return multiply(p, PauliString.single(n, self.k - 1, letter[self.beta]))


@dataclass(frozen=True)
class EtaTable:
    """All nonzero coefficients, sorted by (alpha, beta, i, j, k)."""

    entries: tuple[EtaEntry, ...]

    def for_alpha(self, alpha: str) -> tuple[EtaEntry, ...]:
        return tuple(e for e in self.entries if e.alpha == alpha)

    def index_set(self, alpha: str, beta: str) -> set[tuple[int, int, int]]:
        return {(e.i, e.j, e.k) for e in self.entries if e.alpha == alpha and e.beta == beta}

    def to_text(self) -> str:
        """Plain-text export: one row per entry, columns alpha beta i j k logical_type."""
        lines = ["alpha beta i j k logical_type"]
        for e in self.entries:
            lines.append(f"{e.alpha} {e.beta} {e.i} {e.j} {e.k} {e.logical_type.value}")
        return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=8)
def enumerate_eta(code: StabilizerCode) -> EtaTable:
    """Enumerate all trivial-syndrome logical-error triples of a distance-3 code.

    Scans channel pairs (alpha, beta) in {x,z}^2 and distinct sites
    (i; j < k), keeping products with zero syndrome that classify as
    logical: 10 entries for the 5-qubit code.  Memoized: the table depends on the code alone.
    """
    if not verify_distance(code, 3):
        raise UnsupportedOrderError(
            "third-order enumeration requires a distance-3 code"
        )
    sites = range(1, code.n + 1)
    entries = []
    for alpha, beta in itertools.product(CHANNEL_AXES, repeat=2):
        for i in sites:
            for j, k in itertools.combinations([s for s in sites if s != i], 2):
                entry = EtaEntry(alpha, beta, i, j, k, ErrorClass.DETECTABLE)
                cls = classify(code, entry.pauli(code.n))
                if cls.is_logical:
                    entries.append(EtaEntry(alpha, beta, i, j, k, cls))
    entries.sort(key=lambda e: (e.alpha, e.beta, e.i, e.j, e.k))
    return EtaTable(tuple(entries))
