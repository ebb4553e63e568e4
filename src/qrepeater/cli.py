"""Command-line front end: curve emission, sweeps, repeater runs, oracle checks.

Subcommands emit tab-separated tables (plot-ready, self-describing header)
or JSON, deterministically: identical configuration produces byte-identical
output.  Exit codes: 0 success, 1 failed check (oracle-check), 2 invalid
configuration, 3 infeasible protocol, 4 I/O error.

Only ``oracle-check`` loads the density-matrix oracle, and with it numpy;
every other subcommand runs on the closed forms without numpy, which keeps
a call close to bare interpreter start-up.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields

from . import maps
from .engine import ProtocolConfig, TimingModel, optimize_working_fidelity, simulate
from .errors import InfeasibleError, NumericError, ValidationError
from .states import NoiseParams

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

#: Most points a --grid may have, checked before any point is built.
_MAX_GRID_POINTS = 100_000
#: Most nesting levels sweep-m accepts, checked before L ** levels is formed.
_MAX_LEVELS = 1_000
#: The float parameters of ``repeater``: each is a config key and a flag.
_FLOAT_KEYS = (tuple(f.name for f in fields(NoiseParams)) + ("f_init", "f_work")
               + tuple(f.name for f in fields(TimingModel)))


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _parse_grid(spec: str) -> list[float]:
    """Parse 'start:stop:step' of fidelities (inclusive endpoints within half a step)."""
    try:
        start, stop, step = (float(part) for part in spec.split(":"))
    except ValueError:
        raise ValidationError(f"grid must be 'start:stop:step', got {spec!r}")
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValidationError(f"grid {spec!r} must have finite start, stop and step")
    if step <= 0 or stop < start:
        raise ValidationError(f"bad grid {spec!r}")
    span = (stop - start) / step
    if span + 1 > _MAX_GRID_POINTS:
        raise ValidationError(f"grid {spec!r} has more than {_MAX_GRID_POINTS} points")
    n = int(round(span))
    points = [start + i * step for i in range(n + 1)]
    points = [p for p in points if p <= stop + step * 1e-9]
    if not (0.25 <= points[0] and points[-1] <= 1.0):
        raise ValidationError(f"--grid values must lie in [0.25, 1], got {spec!r}")
    return points


def _parse_float_list(spec: str) -> list[float]:
    try:
        return [float(part) for part in spec.split(",") if part]
    except ValueError:
        raise ValidationError(f"expected comma-separated numbers, got {spec!r}")


def _noise_from_args(args) -> NoiseParams:
    return NoiseParams(p1=args.p1, p2=args.p2, eta=args.eta)


def _write_output(args, text: str) -> None:
    if args.out in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise IOError(f"{args.out}: {exc}") from exc


def _table(header: list[str], rows: list[tuple], fmt: str) -> str:
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _add_noise_flags(parser):
    parser.add_argument("--p1", type=float, default=1.0, help="one-qubit gate reliability")
    parser.add_argument("--p2", type=float, default=1.0, help="two-qubit gate reliability")
    parser.add_argument("--eta", type=float, default=1.0,
                        help="measurement projection quality")


def _add_output_flags(parser, default_format="tsv"):
    parser.add_argument("--out", default="-", help="output path ('-' for stdout)")
    parser.add_argument("--format", choices=("tsv", "json"), default=default_format)


def cmd_connect_curve(args) -> int:
    noise = _noise_from_args(args)
    rows = [(f, maps.connect_L(f, args.L, noise)) for f in _parse_grid(args.grid)]
    _write_output(args, _table(["fidelity_in", "fidelity_connected"], rows, args.format))
    return EXIT_OK


def cmd_purify_curve(args) -> int:
    noise = _noise_from_args(args)
    rows = [(f, *maps.purify_bennett(f, noise)) for f in _parse_grid(args.grid)]
    _write_output(args, _table(["fidelity_in", "fidelity_out", "p_succ"], rows, args.format))
    return EXIT_OK


def cmd_fixed_points(args) -> int:
    points = maps.fixed_points(maps.bennett_map(_noise_from_args(args)))
    rows = [(points.f_min, points.f_max)]
    _write_output(args, _table(["f_min", "f_max"], rows, args.format))
    return EXIT_OK


def cmd_sweep_m(args) -> int:
    noise_values = _parse_float_list(args.noise_list)
    if not noise_values:
        raise ValidationError(f"--noise-list holds no values, got {args.noise_list!r}")
    for q in noise_values:
        if not 0.5 <= q <= 1.0:
            raise ValidationError(f"--noise-list values must lie in [0.5, 1], got {q!r}")
    grid = _parse_grid(args.grid)
    if not 1 <= args.levels <= _MAX_LEVELS:
        raise ValidationError(f"--levels must lie in [1, {_MAX_LEVELS}], got {args.levels}")
    if args.L < 2:
        raise ValidationError(f"--L must be at least 2, got {args.L}")
    # the first test keeps the exact power below a million bits
    if args.L > sys.float_info.max or args.L ** args.levels > sys.float_info.max:
        raise ValidationError(f"--L to the power --levels {args.levels} exceeds float range")
    rows = []
    for q in noise_values:
        try:
            result = optimize_working_fidelity(args.L, NoiseParams.uniform(q), args.protocol,
                                               grid, n_levels=args.levels)
        except InfeasibleError as exc:
            print(f"skipped: noise={q!r}: {exc}", file=sys.stderr)
            continue
        except ValidationError:
            # the flags are checked above, so what is left is a run whose totals overflow
            raise ValidationError(
                f"--levels {args.levels} is too deep for --L {args.L}: "
                f"a run's totals exceed float range at noise {q!r}"
            ) from None
        rows.extend((q, f, m_value) for f, m_value in result.curve)
    _write_output(args, _table(["noise", "working_fidelity", "avg_pairs_per_level"],
                               rows, args.format))
    return EXIT_OK


def _config_from_args(args) -> ProtocolConfig:
    file_values = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                file_values = json.load(handle)
        except OSError as exc:
            raise IOError(f"{args.config}: {exc}") from exc
        # ValueError covers bad JSON, bytes that are not UTF-8 and ints past the
        # digit limit; deep nesting exhausts the decoder's recursion limit
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"config file {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ValidationError(f"config file {args.config} must hold a JSON object")

    def pick(key, fallback, kind):
        value = getattr(args, key)
        if value is None:
            value = file_values.get(key, fallback)
        # bool is an int subclass, and float() or int() would coerce it silently
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ValidationError(f"config field {key} must be {kind.__name__}, got {value!r}")
        try:
            return kind(value)
        except OverflowError:  # an int beyond float range
            raise ValidationError(f"config field {key} exceeds float range") from None

    unknown = set(file_values) - {"scheme", "N", "L", *_FLOAT_KEYS}
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")

    noise = NoiseParams(**{f.name: pick(f.name, f.default, float) for f in fields(NoiseParams)})
    timing = TimingModel(**{f.name: pick(f.name, f.default, float) for f in fields(TimingModel)})
    f_work = pick("f_work", 0.96, float)
    return ProtocolConfig(
        n_segments=pick("N", 16, int),
        length=pick("L", 2, int),
        scheme=pick("scheme", "B", str),
        f_init=pick("f_init", f_work, float),
        f_work=f_work,
        noise=noise,
        timing=timing,
    )


def cmd_repeater(args) -> int:
    report = simulate(_config_from_args(args), protocol=args.purifier)
    if args.format == "json":
        text = json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"
    else:
        rows = [(rec.level, rec.span_segments, rec.fidelity_in, rec.fidelity_connected,
                 rec.fidelity_achieved, rec.steps, rec.avg_pairs)
                for rec in report.levels]
        text = _table(
            ["level", "span_segments", "fidelity_in", "fidelity_connected",
             "fidelity_achieved", "steps", "avg_pairs"], rows, "tsv")
    _write_output(args, text)
    print(
        f"scheme={report.scheme} N={report.n_segments} "
        f"resources={_fmt(report.parallel_resources)} "
        f"time_s={_fmt(report.total_time)} final_fidelity={_fmt(report.final_fidelity)}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    from .oracle import closed_form_deviations  # the one subcommand that needs numpy

    try:
        deviations = closed_form_deviations()
    except NumericError as exc:  # an oracle output left the Bell-diagonal form
        print(f"FAIL: {exc}")
        return EXIT_CHECK_FAILED
    worst_connect, worst_pf, worst_pp, worst_deutsch = deviations
    print(f"connection fidelity     max |closed form - oracle| = {worst_connect:.3e}")
    print(f"purification fidelity   max |closed form - oracle| = {worst_pf:.3e}")
    print(f"purification p_succ     max |closed form - oracle| = {worst_pp:.3e}")
    print(f"deutsch map             max |closed form - oracle| = {worst_deutsch:.3e}")
    worst = max(worst_connect, worst_pf, worst_pp, worst_deutsch)
    if worst > 1e-12:
        print(f"FAIL: max deviation {worst:.3e} exceeds 1e-12")
        return EXIT_CHECK_FAILED
    print("PASS: all deviations within 1e-12")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrepeater",
        description="Analytic nested entanglement-purification repeater model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("connect-curve", help="fidelity after connecting a chain")
    p.add_argument("--grid", default="0.25:1.0:0.001")
    p.add_argument("--L", type=int, default=2, help="pairs per chain")
    _add_noise_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_connect_curve)

    p = sub.add_parser("purify-curve", help="one purification step over a fidelity grid")
    p.add_argument("--grid", default="0.5:1.0:0.001")
    p.add_argument("--protocol", choices=maps.PROTOCOLS, default="bennett",
                   help="either protocol gives the same output: on Werner pairs they are one map")
    _add_noise_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_purify_curve)

    p = sub.add_parser("fixed-points", help="fixed points of a purification map")
    p.add_argument("--protocol", choices=maps.PROTOCOLS, default="bennett",
                   help="either protocol gives the same output: on Werner pairs they are one map")
    _add_noise_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("sweep-m", help="average copies per level vs working fidelity")
    p.add_argument("--protocol", choices=maps.PROTOCOLS, default="bennett")
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--noise-list", default="0.995",
                   help="comma-separated uniform reliability values")
    p.add_argument("--grid", default="0.88:0.99:0.005")
    p.add_argument("--levels", type=int, default=10,
                   help="nesting levels averaged over")
    _add_output_flags(p)
    p.set_defaults(func=cmd_sweep_m)

    p = sub.add_parser("repeater", help="run the full nested protocol")
    p.add_argument("--config", help="JSON config file (flags override)")
    p.add_argument("--scheme", choices=("A", "B", "C"))
    p.add_argument("--N", type=int, help="number of elementary segments")
    p.add_argument("--L", type=int)
    for key in _FLOAT_KEYS:
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=float)
    p.add_argument("--purifier", choices=maps.PROTOCOLS, default="deutsch",
                   help="purification protocol for scheme C")
    _add_output_flags(p, default_format="json")
    p.set_defaults(func=cmd_repeater)

    p = sub.add_parser("oracle-check",
                       help="closed-form maps vs the density-matrix simulation")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except IOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
