"""Two-qubit entangled-pair states in the Bell basis.

A fixed Bell-basis ordering is used everywhere in this package:

    index 0: target state     (|00> + |11>)/sqrt(2)
    index 1: phase flipped    (|00> - |11>)/sqrt(2)
    index 2: bit flipped      (|01> + |10>)/sqrt(2)
    index 3: both flipped     (|01> - |10>)/sqrt(2)

With this ordering the index of a Bell state is a two-bit label
(bit 0 = phase flip, bit 1 = bit flip) and composing flips is XOR on
indices, which the connection algebra in :mod:`qrepeater.maps` relies on.

``require_real``, ``require_in`` (a closed range) and ``require_int`` decide
what counts as a number in the whole package, the CLI's ``--config`` included.
Float fields store the float they return, so an int becomes a float; a bool,
a string, ``None`` or an int beyond float range is an error naming the field.

``checked_coeffs`` is the one check of a Bell coefficient vector: the
``BellDiagonalState`` constructor runs it, and so do the hot loops, which
carry plain tuples.  One pass of four class tests, the sign tests and the
sum test covers the common case; a non-float goes through ``require_real``
first.  ``werner_coeffs`` is a range check and the Werner formula, whose
coefficients pass that check by construction.

``NoiseParams`` holds the reliabilities of the imperfect operations that
act on these states; the closed forms and the oracle share it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ValidationError

#: Tolerance for clamping round-off negatives and for the normalization check.
COEFF_ATOL = 1e-12


def checked_coeffs(coeffs) -> tuple[float, float, float, float]:
    """The four Bell coefficients as a checked tuple of floats.

    Small negative round-off (>= -1e-12) is clamped to zero and the vector
    renormalized; anything worse, a length other than 4, or a sum (NaN
    included) farther than 1e-12 from 1 is rejected.  Four non-negative
    floats take one pass: four class tests, the sign tests and the sum
    test; any other number goes through :func:`require_real` first.
    """
    raw = tuple(coeffs)
    if len(raw) != 4:
        raise ValidationError(f"expected 4 Bell coefficients, got {len(raw)}")
    a, b, c, d = raw
    if not a.__class__ is b.__class__ is c.__class__ is d.__class__ is float:
        raw = a, b, c, d = tuple(require_real("Bell coefficient", x) for x in raw)
    # a NaN takes the clamping path too, and then fails the sum check
    clamped = not (a >= 0.0 and b >= 0.0 and c >= 0.0 and d >= 0.0)
    if clamped:
        for x in raw:
            if x < -COEFF_ATOL:
                raise ValidationError(f"Bell coefficient {x!r} is negative beyond tolerance")
        raw = tuple(0.0 if x < 0.0 else x for x in raw)
    elif abs(a + b + c + d - 1.0) <= COEFF_ATOL:
        return raw
    # only a clamped vector or a failing sum gets here; sum() gives both their total
    total = sum(raw)
    if not abs(total - 1.0) <= COEFF_ATOL:
        raise ValidationError(f"Bell coefficients must sum to 1, got {total!r}")
    return tuple(x / total for x in raw) if clamped else raw


def require_real(name: str, value) -> float:
    """``value`` as a float if it is an int or a float, but not a bool (it compares as 0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} exceeds float range") from None


def require_in(name: str, value, lo, hi) -> float:
    """:func:`require_real` in ``[lo, hi]`` (NaN fails); a plain float costs one class test."""
    x = value if value.__class__ is float else require_real(name, value)
    if not lo <= x <= hi:
        raise ValidationError(f"{name} must lie in [{lo}, {hi}], got {value!r}")
    return x


def require_int(name: str, value) -> int:
    """Reject ``value`` unless it is an int; a bool would pass as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an int, got {value!r}")
    return value


def require_type(name: str, value, cls):
    """Reject ``value`` unless it is a ``cls``, naming the argument; an entry point's first check."""
    if not isinstance(value, cls):
        raise ValidationError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def werner_coeffs(fidelity: float) -> tuple[float, float, float, float]:
    """Checked Bell coefficients of the Werner state of ``fidelity`` (in [1/4, 1]).

    The range check also rejects NaN and infinities.  The sum test of
    :func:`checked_coeffs` holds by construction: ``1 - f``, ``/ 3`` and the
    three additions each round by at most 2**-53 (the division's error counts
    thrice), so ``f + off + off + off`` is within 7 * 2**-53 < 1e-15 of 1.
    """
    f = require_in("Werner fidelity", fidelity, 0.25, 1.0)
    off = (1.0 - f) / 3.0
    return f, off, off, off


@dataclass(frozen=True)
class WernerState:
    """Isotropic pair state, fully characterized by its fidelity.

    The fidelity is the overlap with the target Bell state and must lie
    in [1/4, 1]; 1/4 is the maximally mixed state, 1 the pure target.
    """

    fidelity: float

    def __post_init__(self):
        # werner_coeffs holds the range check; its first coefficient is the fidelity
        object.__setattr__(self, "fidelity", werner_coeffs(self.fidelity)[0])

    def to_bell_diagonal(self) -> "BellDiagonalState":
        return BellDiagonalState(werner_coeffs(self.fidelity))


@dataclass(frozen=True)
class BellDiagonalState:
    """Mixture of the four Bell states, stored as the four mixing probabilities.

    Coefficients follow the package-wide ordering (target state first) and
    pass through :func:`checked_coeffs`.
    """

    coeffs: tuple[float, float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", checked_coeffs(self.coeffs))

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
        for name, lo in (("p1", 0), ("p2", 0), ("eta", 0.5)):
            object.__setattr__(self, name, require_in(name, getattr(self, name), lo, 1))

    # Constants of the maps' kernels, derived once per instance.  A cached
    # property is stored in the instance dict, not as a field, so equality,
    # hashing, repr and asdict see only p1, p2 and eta.

    @cached_property
    def purify_constants(self) -> tuple[float, float, float, float]:
        """``(alpha, beta, gates_ok, floor)`` of :func:`qrepeater.maps.purify_coeffs`."""
        eta = self.eta
        alpha = eta * eta + (1.0 - eta) ** 2
        beta = 2.0 * eta * (1.0 - eta)
        gates_ok = self.p2 ** 2
        return alpha, beta, gates_ok, (1.0 - gates_ok) / 8.0

    @cached_property
    def connect_constants(self) -> tuple[tuple[float, ...], float, float]:
        """``(kernel, ideal_weight, mixed)`` of :func:`qrepeater.maps.connect_coeffs`."""
        eta = self.eta
        kernel = (eta * eta, eta * (1.0 - eta), eta * (1.0 - eta), (1.0 - eta) ** 2)
        ideal_weight = self.p1 * self.p2
        return kernel, ideal_weight, (1.0 - ideal_weight) / 4.0

    @classmethod
    def uniform(cls, q: float) -> "NoiseParams":
        """All three reliabilities set to the same value."""
        return cls(q, q, q)
