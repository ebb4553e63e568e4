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

Resource accounting: a level that needs ``m`` purification steps consumes on
average ``M = prod(2 / p_succ)`` parallel copies of its connected pair (in
scheme C, ``M = 1 + m`` sequential creations); the report carries the
per-level ``M_k``, their product (the headline parallel resources; in scheme
C the ``n_levels + 1`` particles per node instead) and the total
elementary-pair count ``prod(L * M_k)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import AuxPurificationError, InfeasibleError, ValidationError
from .maps import _purify_until, connect_chain, connect_L
from .oracle import NoiseParams
from .states import WernerState


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
        if self.length < 2:
            raise ValidationError(f"branching factor must be >= 2, got {self.length}")
        if self.n_segments < self.length:
            raise ValidationError(
                f"need at least {self.length} segments, got {self.n_segments}"
            )
        if self.length ** self.n_levels != self.n_segments:
            raise ValidationError(
                f"segment count {self.n_segments} is not a power of L={self.length}"
            )
        for name in ("f_init", "f_work"):
            value = getattr(self, name)
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
    if isinstance(exc, AuxPurificationError):
        exc.level = level
    return exc


def simulate(config: ProtocolConfig, protocol: str | None = None) -> RepeaterReport:
    """Run the nested protocol: per level, connect ``L`` pairs, then purify to ``f_work``.

    The scheme fixes the two things that differ between the variants: whether
    states are depolarized to Werner form after every map (scheme A), and
    where a purification step gets its copy: a parallel copy of the pair
    (A, B) or a re-created auxiliary pair (C).  ``protocol`` selects scheme
    C's purification protocol, ``"deutsch"`` by default; the twirl-based
    ``"bennett"`` fails the pumping condition and raises.  Schemes A and B
    ignore it.

    Build time: elementary pairs take ``tau_pair``; every round at level k
    pays the local operation time and the classical signalling time across
    the level's span.  With parallel copies a level costs one connection
    round plus one round per purification step.  In scheme C the auxiliary
    pair of every step is re-created from scratch through all lower levels
    (sequentially), while the sub-builds within one creation run in parallel
    across their spans.
    """
    pumped = config.scheme == "C"
    if not pumped:
        protocol = "bennett" if config.scheme == "A" else "deutsch"
    elif protocol is None:
        protocol = "deutsch"
    elif protocol not in ("bennett", "deutsch"):
        raise ValidationError(f"unknown purification protocol {protocol!r}")

    timing = config.timing
    state = WernerState(config.f_init).to_bell_diagonal()
    levels: list[LevelRecord] = []
    parallel = 1.0
    pairs = 1.0
    total_time = timing.tau_pair
    for level in range(1, config.n_levels + 1):
        f_in = state.fidelity
        if config.scheme == "A":
            connected_f = connect_L(f_in, config.length, config.noise)
            connected = WernerState(connected_f).to_bell_diagonal()
        else:
            connected = connect_chain([state] * config.length, config.noise)
        try:
            trace = _purify_until(connected, config.f_work, config.noise, protocol,
                                  aux=connected if pumped else None)
        except InfeasibleError as exc:
            raise _attach_level(exc, level)
        steps = len(trace.steps)
        levels.append(LevelRecord(
            level=level,
            span_segments=config.length ** level,
            fidelity_in=f_in,
            fidelity_connected=connected.fidelity,
            fidelity_achieved=trace.final_state.fidelity,
            steps=steps,
            p_succ=tuple(p for _, p in trace.steps),
            avg_pairs=trace.avg_pairs,
        ))
        parallel *= trace.avg_pairs
        pairs *= config.length * trace.avg_pairs
        round_time = timing.tau_op + timing.comm_time(config.length ** level)
        if pumped:
            t_pair = total_time + round_time
            total_time = t_pair + steps * (t_pair + round_time)
        else:
            total_time += (1 + steps) * round_time
        state = trace.final_state

    return RepeaterReport(
        scheme=config.scheme,
        n_segments=config.n_segments,
        length=config.length,
        n_levels=config.n_levels,
        f_init=config.f_init,
        f_work=config.f_work,
        noise=config.noise,
        timing=config.timing,
        levels=tuple(levels),
        final_fidelity=state.fidelity,
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


def average_pairs_per_level(length: int, noise: NoiseParams, protocol: str,
                            working_fidelity: float, n_levels: int = 10) -> float:
    """Geometric-mean parallel copies per level when holding a working fidelity.

    Runs the nested protocol for ``n_levels`` levels with the elementary and
    working fidelity both set to ``working_fidelity`` and averages the
    per-level copy counts; discreteness makes individual levels overshoot
    and undershoot, and the average is what the working point maintains.
    """
    scheme = "A" if protocol == "bennett" else "B"
    config = ProtocolConfig(
        n_segments=length ** n_levels,
        length=length,
        scheme=scheme,
        f_init=working_fidelity,
        f_work=working_fidelity,
        noise=noise,
    )
    report = simulate(config)
    return report.parallel_resources ** (1.0 / n_levels)


def optimize_working_fidelity(length: int, noise: NoiseParams, protocol: str,
                              f_grid, n_levels: int = 10) -> OptimizeResult:
    """Sweep the working fidelity and minimize the per-level copy count."""
    curve: list[tuple[float, float]] = []
    infeasible: list[float] = []
    for f_work in f_grid:
        try:
            m_value = average_pairs_per_level(length, noise, protocol, f_work, n_levels)
        except InfeasibleError:
            infeasible.append(float(f_work))
            continue
        curve.append((float(f_work), m_value))
    if not curve:
        lo = min(infeasible) if infeasible else float("nan")
        hi = max(infeasible) if infeasible else float("nan")
        raise InfeasibleError(
            f"no feasible working fidelity on the grid [{lo}, {hi}]"
        )
    f_opt, m_min = min(curve, key=lambda item: item[1])
    return OptimizeResult(f_opt, m_min, tuple(curve), tuple(infeasible))
