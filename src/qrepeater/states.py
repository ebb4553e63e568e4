"""Two-qubit entangled-pair states in the Bell basis.

A fixed Bell-basis ordering is used everywhere in this package:

    index 0: target state     (|00> + |11>)/sqrt(2)
    index 1: phase flipped    (|00> - |11>)/sqrt(2)
    index 2: bit flipped      (|01> + |10>)/sqrt(2)
    index 3: both flipped     (|01> - |10>)/sqrt(2)

With this ordering the index of a Bell state is a two-bit label
(bit 0 = phase flip, bit 1 = bit flip) and composing flips is XOR on
indices, which the connection algebra in :mod:`qrepeater.maps` relies on.

``NoiseParams`` holds the reliabilities of the imperfect operations that
act on these states; the closed forms and the oracle share it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

#: Tolerance for clamping round-off negatives and for the normalization check.
COEFF_ATOL = 1e-12


@dataclass(frozen=True)
class WernerState:
    """Isotropic pair state, fully characterized by its fidelity.

    The fidelity is the overlap with the target Bell state and must lie
    in [1/4, 1]; 1/4 is the maximally mixed state, 1 the pure target.
    """

    fidelity: float

    def __post_init__(self):
        f = float(self.fidelity)
        if not 0.25 <= f <= 1.0:
            raise ValidationError(
                f"Werner fidelity must lie in [0.25, 1.0], got {self.fidelity!r}"
            )
        object.__setattr__(self, "fidelity", f)

    def to_bell_diagonal(self) -> "BellDiagonalState":
        off = (1.0 - self.fidelity) / 3.0
        return BellDiagonalState((self.fidelity, off, off, off))


@dataclass(frozen=True)
class BellDiagonalState:
    """Mixture of the four Bell states, stored as the four mixing probabilities.

    Coefficients follow the package-wide ordering (target state first).
    Small negative round-off (>= -1e-12) is clamped to zero and the state
    renormalized; anything worse is rejected.
    """

    coeffs: tuple[float, float, float, float]

    def __post_init__(self):
        raw = tuple(float(c) for c in self.coeffs)
        if len(raw) != 4:
            raise ValidationError(f"expected 4 Bell coefficients, got {len(raw)}")
        clamped = False
        fixed = []
        for c in raw:
            if c < 0.0:
                if c < -COEFF_ATOL:
                    raise ValidationError(f"Bell coefficient {c!r} is negative beyond tolerance")
                c = 0.0
                clamped = True
            fixed.append(c)
        total = sum(fixed)
        if abs(total - 1.0) > COEFF_ATOL:
            raise ValidationError(f"Bell coefficients must sum to 1, got {total!r}")
        if clamped:
            fixed = [c / total for c in fixed]
        object.__setattr__(self, "coeffs", tuple(fixed))

    @property
    def fidelity(self) -> float:
        return self.coeffs[0]


@dataclass(frozen=True)
class NoiseParams:
    """Reliability parameters of the imperfect-operation model.

    p1, p2 are the one- and two-qubit gate reliabilities in [0, 1]; eta is
    the quality of the readout projection in [1/2, 1].
    """

    p1: float = 1.0
    p2: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.p1 <= 1.0:
            raise ValidationError(f"p1 must lie in [0, 1], got {self.p1!r}")
        if not 0.0 <= self.p2 <= 1.0:
            raise ValidationError(f"p2 must lie in [0, 1], got {self.p2!r}")
        if not 0.5 <= self.eta <= 1.0:
            raise ValidationError(f"eta must lie in [0.5, 1], got {self.eta!r}")

    @classmethod
    def uniform(cls, q: float) -> "NoiseParams":
        """All three reliabilities set to the same value."""
        return cls(q, q, q)
