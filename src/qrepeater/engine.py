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

One nesting level is one call of the level map ``_level_map``: it connects
``L`` pairs and then purifies, one step at a time, back up to the working
fidelity.  ``_run_levels`` is the accounting fold over it that both
:func:`simulate` and :func:`optimize_working_fidelity` run, on arguments
their callers checked once.  A step that gains nothing ends the run with an
:class:`InfeasibleError` naming the level and the cause (``_stall_error``),
as does a level over ``_MAX_STEPS`` steps or with a total beyond float
range.  States are carried as checked Bell coefficient 4-tuples through the
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
from .states import (NoiseParams, checked_coeffs, require_in, require_int, require_real,
                     require_type, werner_coeffs)

#: Least fidelity gain a purification step must make; a smaller one is a stall.
_GAIN_EPS = 1e-13
_MAX_STEPS = 10_000
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


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
            x = require_real(name, value)
            if not 0 < x < math.inf:
                raise ValidationError(
                    f"timing field {name} must be positive and finite, got {value!r}"
                )
            object.__setattr__(self, name, x)

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
        require_int("length", self.length)
        require_int("n_segments", self.n_segments)
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
            object.__setattr__(self, name, require_in(name, getattr(self, name), 0.25, 1))
        require_type("noise", self.noise, NoiseParams)
        require_type("timing", self.timing, TimingModel)

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


def _require_protocol(protocol: str) -> None:
    if protocol not in PROTOCOLS:
        raise ValidationError(f"unknown purification protocol {protocol!r}")


def _level_map(state, length: int, noise: NoiseParams, f_work: float, scheme: str,
               protocol: str):
    """One nesting level: connect ``length`` copies of ``state``, purify back to ``f_work``.

    ``state`` is a checked coefficient 4-tuple, ``protocol`` the one the purification
    steps run.  Scheme A projects the connected pair and every step's output to Werner
    form; scheme C purifies with a re-created connected pair instead of a parallel copy.
    Every kernel output is checked; a step that gains nothing raises
    :func:`_stall_error`, and more than ``_MAX_STEPS`` steps an :class:`InfeasibleError`.
    Returns ``(state, connected_fidelity, p_succ, copies)``: ``copies`` is ``M``, the
    product of ``2 / p_succ`` over the steps taken left to right from 1.0, or
    ``1 + steps`` in scheme C.
    """
    pumped = scheme == "C"
    if scheme == "A":
        connected = werner_coeffs(connect_L(state[0], length, noise))
    else:
        connected = chain_coeffs(state, length, noise)
    # overshoot past f_work is allowed and recorded
    state, fidelity, p_succ, copies = connected, connected[0], [], 1.0
    while fidelity < f_work:
        if len(p_succ) >= _MAX_STEPS:  # reachable just inside the saddle node
            raise InfeasibleError(
                f"purification did not reach the working fidelity {f_work} "
                f"within {_MAX_STEPS} steps"
            )
        p, out = purify_coeffs(state, connected if pumped else state, noise, protocol)
        purified = checked_coeffs(out)
        if scheme == "A":
            purified = werner_coeffs(purified[0])
        if purified[0] <= fidelity + _GAIN_EPS:
            raise _stall_error(fidelity, connected[0], f_work, pumped)
        p_succ.append(p)
        copies *= 2.0 / p
        state, fidelity = purified, purified[0]
    if pumped:
        copies = 1.0 + len(p_succ)
    return state, connected[0], p_succ, copies


def _run_levels(f_init: float, n_levels: int, length: int, noise: NoiseParams,
                f_work: float, scheme: str, protocol: str, timing: TimingModel):
    """The accounting fold over :func:`_level_map`, on already-checked arguments.

    Runs ``n_levels`` levels from a Werner pair at ``f_init``, with ``protocol``
    the one the purification steps run, and adds up the parallel copies, the
    elementary pairs and the build time; a total beyond float range is an
    infeasibility of its level, and every :class:`InfeasibleError` is named
    after its level.  Returns ``(rows, parallel, pairs, total_time)``; a row
    holds the :class:`LevelRecord` fields of a level, in order.
    """
    pumped = scheme == "C"
    state = werner_coeffs(f_init)
    rows = []
    parallel = 1.0
    pairs = 1.0
    span = 1
    total_time = timing.tau_pair
    for level in range(1, n_levels + 1):
        f_in = state[0]
        try:
            state, connected, p_succ, copies = _level_map(state, length, noise, f_work,
                                                          scheme, protocol)
            steps = len(p_succ)
            span *= length
            parallel *= copies
            pairs *= length * copies
            round_time = timing.tau_op + timing.comm_time(span)
            if pumped:
                t_pair = total_time + round_time
                total_time = t_pair + steps * (t_pair + round_time)
            else:
                total_time += (1 + steps) * round_time
            # parallel never exceeds pairs, so it stays finite with it
            if not math.isfinite(pairs):
                raise InfeasibleError("elementary_pairs exceeds float range")
            if not math.isfinite(total_time):
                raise InfeasibleError("total_time exceeds float range")
        except InfeasibleError as exc:
            raise _attach_level(exc, level)
        rows.append((level, span, f_in, connected, state[0], steps, tuple(p_succ), copies))
    return rows, parallel, pairs, total_time


def simulate(config: ProtocolConfig, protocol: str = "deutsch") -> RepeaterReport:
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
    across their spans.  A total beyond float range is infeasible at its level.
    """
    _require_protocol(protocol)
    pumped = config.scheme == "C"
    if not pumped:
        protocol = "bennett" if config.scheme == "A" else "deutsch"
    rows, parallel, pairs, total_time = _run_levels(
        config.f_init, config.n_levels, config.length, config.noise, config.f_work,
        config.scheme, protocol, config.timing)
    levels = tuple(LevelRecord(*row) for row in rows)
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
        final_fidelity=levels[-1].fidelity_achieved,
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
    average is what the working point maintains.  The shared arguments are
    checked once, with :class:`ProtocolConfig`'s messages, and each point runs
    the accounting fold of :func:`simulate` on its checked fidelity, with no
    config, per-level records or report built.
    """
    require_int("length", length)
    require_int("n_levels", n_levels)
    if n_levels < 1:
        raise ValidationError(f"n_levels must be >= 1, got {n_levels}")
    if length < 2:
        raise ValidationError(f"branching factor must be >= 2, got {length}")
    # by logarithm, so that a huge n_levels builds no huge power before the check
    if n_levels * math.log(length) > _LOG_FLOAT_MAX:
        raise ValidationError(
            f"length ** n_levels ({length} ** {n_levels}) exceeds float range"
        )
    if length ** n_levels > sys.float_info.max:  # the exact range, past the logarithm's rounding
        raise ValidationError(
            f"segment count N exceeds float range (at most {sys.float_info.max:.6g})"
        )
    require_type("noise", noise, NoiseParams)
    _require_protocol(protocol)
    scheme = "A" if protocol == "bennett" else "B"
    timing = TimingModel()
    curve: list[tuple[float, float]] = []
    infeasible: list[float] = []
    for f in f_grid:
        f_work = require_in("f_work", f, 0.25, 1)
        try:
            parallel = _run_levels(f_work, n_levels, length, noise, f_work, scheme, protocol,
                                   timing)[1]
        except InfeasibleError:
            infeasible.append(f_work)
            continue
        curve.append((f_work, parallel ** (1.0 / n_levels)))
    if not curve:
        if not infeasible:
            raise ValidationError("the working-fidelity grid f_grid is empty")
        raise InfeasibleError(
            f"no feasible working fidelity on the grid [{min(infeasible)}, {max(infeasible)}]"
        )
    f_opt, m_min = min(curve, key=lambda item: item[1])
    return OptimizeResult(f_opt, m_min, tuple(curve), tuple(infeasible))
