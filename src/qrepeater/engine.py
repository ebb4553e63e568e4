"""Nested connection-purification protocol over a segmented channel.

Three variants are modeled, all as deterministic expectation values (no
Monte Carlo):

* scheme A -- nesting with the twirl-based purification protocol; the state
  is depolarized to Werner form at every stage, so the whole pipeline runs
  on scalar fidelities.
* scheme B -- nesting with the rotation-based protocol; full Bell-diagonal
  states are carried through both purification *and* connection, because the
  protocol's speed advantage lives in the non-Werner structure of its
  output states.
* scheme C -- purification by repeated creation of a constant-fidelity
  auxiliary pair instead of parallel copies; parallel resources per node
  grow only with the number of nesting levels, while the build time
  compounds level over level.

Each level of :func:`simulate` connects ``L`` pairs and then purifies, one
step at a time, back up to the working fidelity; a step that gains nothing
ends the run with an :class:`InfeasibleError` naming the level and the cause
(``_stall_error``), as does a level that needs more than ``_MAX_STEPS``
steps.  States are carried as checked Bell coefficient 4-tuples through the
coefficient kernels of :mod:`qrepeater.maps`.

Resource accounting: a level that needs ``m`` purification steps consumes on
average ``M = prod(2 / p_succ)`` parallel copies of its connected pair (in
scheme C, ``M = 1 + m`` sequential creations); the report carries the
per-level ``M_k``, their product (the headline parallel resources; in scheme
C the ``n_levels + 1`` particles per node instead) and the total
elementary-pair count ``prod(L * M_k)``.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    AuxPurificationError,
    BelowThresholdError,
    InfeasibleError,
    ValidationError,
    WorkingFidelityUnreachableError,
)
from .maps import PROTOCOLS, chain_coeffs, connect_L, purify_coeffs
from .states import NoiseParams, checked_coeffs, require_real, werner_coeffs

#: Least fidelity gain a purification step must make; a smaller one is a stall.
_GAIN_EPS = 1e-13
_MAX_STEPS = 10_000
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _require_int(name: str, value) -> None:
    # bool is an int subclass, and would pass as 0 or 1
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class TimingModel:
    """Time constants of the protocol.

    ``tau_op``: seconds per local gate-plus-measurement round;
    ``tau_pair``: seconds to create one elementary pair;
    ``segment_km`` / ``signal_speed``: geometry and classical signalling
    speed (km and km/s) for communication delays.
    """

    tau_op: float = 1e-5
    tau_pair: float = 3e-4
    segment_km: float = 10.0
    signal_speed: float = 2e5

    def __post_init__(self):
        for name in ("tau_op", "tau_pair", "segment_km", "signal_speed"):
            value = getattr(self, name)
            require_real(name, value)
            if not 0 < value < math.inf:
                raise ValidationError(
                    f"timing field {name} must be positive and finite, got {value!r}"
                )

    def comm_time(self, span_segments: int) -> float:
        """One-way classical signalling time across ``span_segments`` segments."""
        return span_segments * self.segment_km / self.signal_speed


@dataclass(frozen=True)
class ProtocolConfig:
    """Full description of one repeater run."""

    n_segments: int
    length: int
    scheme: str
    f_init: float
    f_work: float
    noise: NoiseParams
    timing: TimingModel = field(default_factory=TimingModel)

    def __post_init__(self):
        if self.scheme not in ("A", "B", "C"):
            raise ValidationError(f"scheme must be one of A, B, C, got {self.scheme!r}")
        _require_int("length", self.length)
        _require_int("n_segments", self.n_segments)
        if self.length < 2:
            raise ValidationError(f"branching factor must be >= 2, got {self.length}")
        if self.n_segments < self.length:
            raise ValidationError(
                f"need at least {self.length} segments, got {self.n_segments}"
            )
        if self.n_segments > sys.float_info.max:
            raise ValidationError(
                f"segment count N exceeds float range (at most {sys.float_info.max:.6g})"
            )
        if self.length ** self.n_levels != self.n_segments:
            raise ValidationError(
                f"segment count {self.n_segments} is not a power of L={self.length}"
            )
        # f_init defaults to f_work in the CLI, so a bad f_work is named first
        for name in ("f_work", "f_init"):
            value = getattr(self, name)
            require_real(name, value)
            if not 0.25 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0.25, 1], got {value!r}")

    @cached_property
    def n_levels(self) -> int:
        """Largest n with ``length ** n <= n_segments``, in integer arithmetic."""
        n, span = 0, self.length
        while span <= self.n_segments:
            n, span = n + 1, span * self.length
        return n


@dataclass(frozen=True)
class LevelRecord:
    """What happened on one nesting level."""

    level: int
    span_segments: int
    fidelity_in: float
    fidelity_connected: float
    fidelity_achieved: float
    steps: int
    p_succ: tuple[float, ...]
    avg_pairs: float


@dataclass(frozen=True)
class RepeaterReport:
    """Outcome of a full nested run."""

    scheme: str
    n_segments: int
    length: int
    n_levels: int
    f_init: float
    f_work: float
    noise: NoiseParams
    timing: TimingModel
    levels: tuple[LevelRecord, ...]
    final_fidelity: float
    parallel_resources: float
    elementary_pairs: float
    total_time: float
    particles_per_node: int | None = None


def _attach_level(exc: InfeasibleError, level: int) -> InfeasibleError:
    exc.args = (f"level {level}: {exc.args[0]}",) + exc.args[1:]
    exc.level = level
    return exc


def _stall_error(stalled: float, connected: float, f_work: float,
                 pumped: bool) -> InfeasibleError:
    """The error for a purification step that gained nothing at fidelity ``stalled``."""
    if pumped:
        return AuxPurificationError(
            f"pumping with the re-created pair stalls at fidelity "
            f"{stalled:.6f}, below the working fidelity {f_work}"
        )
    if stalled <= connected + 1e-9:
        return BelowThresholdError(
            f"fidelity {connected:.6f} is at or below the purification threshold"
        )
    return WorkingFidelityUnreachableError(
        f"purification stalls at fidelity {stalled:.6f}, below the working fidelity {f_work}"
    )


def _run_levels(config: ProtocolConfig, protocol: str | None):
    """The level loop behind :func:`simulate` and :func:`optimize_working_fidelity`.

    Everything that decides a run happens here: the protocol check, scheme
    A's Werner projection, the check of every kernel output, the step cap
    and stall errors, and the pairs and time recurrences with their
    finiteness check.  Returns ``(rows, final_fidelity, parallel, pairs,
    total_time)``, where each row is one level's ``(span_segments,
    fidelity_in, fidelity_connected, fidelity_achieved, p_succ, avg_pairs)``.
    """
    if protocol is not None and protocol not in PROTOCOLS:
        raise ValidationError(f"unknown purification protocol {protocol!r}")
    pumped = config.scheme == "C"
    depolarize = config.scheme == "A"
    if not pumped:
        protocol = "bennett" if depolarize else "deutsch"
    elif protocol is None:
        protocol = "deutsch"

    timing, noise, f_work, length = config.timing, config.noise, config.f_work, config.length
    state = werner_coeffs(config.f_init)
    rows = []
    parallel = 1.0
    pairs = 1.0
    total_time = timing.tau_pair
    for level in range(1, config.n_levels + 1):
        f_in = state[0]
        if depolarize:
            connected = werner_coeffs(connect_L(f_in, length, noise))
        else:
            connected = chain_coeffs([state] * length, noise)
        # purify back up to f_work; overshoot past it is allowed and recorded
        state, fidelity, p_succ = connected, connected[0], []
        try:
            while fidelity < f_work:
                if len(p_succ) >= _MAX_STEPS:  # reachable just inside the saddle node
                    raise InfeasibleError(
                        f"purification did not reach the working fidelity {f_work} "
                        f"within {_MAX_STEPS} steps"
                    )
                p, out = purify_coeffs(state, connected if pumped else state, noise, protocol)
                purified = checked_coeffs(out)
                if depolarize:
                    purified = werner_coeffs(purified[0])
                if purified[0] <= fidelity + _GAIN_EPS:
                    raise _stall_error(fidelity, connected[0], f_work, pumped)
                p_succ.append(p)
                state, fidelity = purified, purified[0]
        except InfeasibleError as exc:
            raise _attach_level(exc, level)
        steps = len(p_succ)
        avg_pairs = 1.0 + steps if pumped else math.prod((2.0 / p for p in p_succ), start=1.0)
        span = length ** level
        rows.append((span, f_in, connected[0], fidelity, p_succ, avg_pairs))
        parallel *= avg_pairs
        pairs *= length * avg_pairs
        round_time = timing.tau_op + timing.comm_time(span)
        if pumped:
            t_pair = total_time + round_time
            total_time = t_pair + steps * (t_pair + round_time)
        else:
            total_time += (1 + steps) * round_time
        # parallel never exceeds pairs, so it stays finite with it
        for name, value in (("elementary_pairs", pairs), ("total_time", total_time)):
            if not math.isfinite(value):
                raise ValidationError(f"level {level}: {name} exceeds float range")
    return rows, state[0], parallel, pairs, total_time


def simulate(config: ProtocolConfig, protocol: str | None = None) -> RepeaterReport:
    """Run the nested protocol: per level, connect ``L`` pairs, then purify to ``f_work``.

    The scheme fixes the two things that differ between the variants: whether
    states are depolarized to Werner form after every map (scheme A), and
    where a purification step gets its copy: a parallel copy of the pair
    (A, B) or a re-created auxiliary pair (C).  ``protocol`` selects scheme
    C's purification protocol, ``"deutsch"`` by default; the twirl-based
    ``"bennett"`` fails the pumping condition and raises.  Schemes A and B
    run their own protocol, but reject an unknown name all the same.

    Build time: elementary pairs take ``tau_pair``; every round at level k
    pays the local operation time and the classical signalling time across
    the level's span.  With parallel copies a level costs one connection
    round plus one round per purification step.  In scheme C the auxiliary
    pair of every step is re-created from scratch through all lower levels
    (sequentially), while the sub-builds within one creation run in parallel
    across their spans.
    """
    rows, final_fidelity, parallel, pairs, total_time = _run_levels(config, protocol)
    pumped = config.scheme == "C"
    levels = tuple(
        LevelRecord(level=level, span_segments=span, fidelity_in=f_in,
                    fidelity_connected=f_connected, fidelity_achieved=f_achieved,
                    steps=len(p_succ), p_succ=tuple(p_succ), avg_pairs=avg_pairs)
        for level, (span, f_in, f_connected, f_achieved, p_succ, avg_pairs)
        in enumerate(rows, start=1))
    return RepeaterReport(
        scheme=config.scheme,
        n_segments=config.n_segments,
        length=config.length,
        n_levels=config.n_levels,
        f_init=config.f_init,
        f_work=config.f_work,
        noise=config.noise,
        timing=config.timing,
        levels=levels,
        final_fidelity=final_fidelity,
        parallel_resources=float(config.n_levels + 1) if pumped else parallel,
        elementary_pairs=pairs,
        total_time=total_time,
        particles_per_node=config.n_levels + 1 if pumped else None,
    )


@dataclass(frozen=True)
class OptimizeResult:
    """Best working fidelity found and the full sampled curve."""

    f_opt: float
    m_min: float
    curve: tuple[tuple[float, float], ...]
    infeasible: tuple[float, ...]


def optimize_working_fidelity(length: int, noise: NoiseParams, protocol: str,
                              f_grid, n_levels: int = 10) -> OptimizeResult:
    """Sweep the working fidelity and minimize the per-level copy count.

    Each grid point runs ``n_levels`` levels of scheme A (``"bennett"``) or B
    (``"deutsch"``) with the elementary and working fidelity both set to the
    point, and takes the geometric mean of the per-level copy counts;
    discreteness makes individual levels overshoot and undershoot, and the
    average is what the working point maintains.  Each point is a checked
    :class:`ProtocolConfig` run through the level loop of :func:`simulate`,
    without building its per-level records or report.
    """
    _require_int("length", length)
    _require_int("n_levels", n_levels)
    if n_levels < 1:
        raise ValidationError(f"n_levels must be >= 1, got {n_levels}")
    # by logarithm, so that a huge n_levels builds no huge power before the check;
    # ProtocolConfig checks length itself, and the exact float range of the power
    if length >= 2 and n_levels * math.log(length) > _LOG_FLOAT_MAX:
        raise ValidationError(
            f"length ** n_levels ({length} ** {n_levels}) exceeds float range"
        )
    scheme = "A" if protocol == "bennett" else "B"
    n_segments = length ** n_levels
    curve: list[tuple[float, float]] = []
    infeasible: list[float] = []
    for f_work in f_grid:
        config = ProtocolConfig(n_segments=n_segments, length=length, scheme=scheme,
                                f_init=f_work, f_work=f_work, noise=noise)
        try:
            parallel = _run_levels(config, protocol)[2]  # rejects an unknown protocol
        except InfeasibleError:
            infeasible.append(float(f_work))
            continue
        curve.append((float(f_work), parallel ** (1.0 / n_levels)))
    if not curve:
        if not infeasible:
            raise ValidationError("the working-fidelity grid f_grid is empty")
        raise InfeasibleError(
            f"no feasible working fidelity on the grid [{min(infeasible)}, {max(infeasible)}]"
        )
    f_opt, m_min = min(curve, key=lambda item: item[1])
    return OptimizeResult(f_opt, m_min, tuple(curve), tuple(infeasible))
