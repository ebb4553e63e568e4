"""Command-line front end: curve emission, sweeps, repeater runs, oracle checks.

Subcommands emit tab-separated tables (plot-ready, self-describing header)
or JSON, deterministically: identical configuration produces byte-identical
output.  Exit codes: 0 success, 1 failed check (oracle-check), 2 invalid
configuration, 3 infeasible protocol, 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import maps
from .engine import (
    ProtocolConfig,
    RepeaterReport,
    TimingModel,
    average_pairs_per_level,
    simulate,
)
from .errors import InfeasibleError, ValidationError
from .oracle import NoiseParams, oracle_connect, oracle_purify
from .states import BellDiagonalState, WernerState

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _parse_grid(spec: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive endpoints within half a step)."""
    try:
        start, stop, step = (float(part) for part in spec.split(":"))
    except ValueError:
        raise ValidationError(f"grid must be 'start:stop:step', got {spec!r}")
    if step <= 0 or stop < start:
        raise ValidationError(f"bad grid {spec!r}")
    n = int(round((stop - start) / step))
    points = [start + i * step for i in range(n + 1)]
    return [p for p in points if p <= stop + step * 1e-9]


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


def _add_noise_flags(parser, defaults=(1.0, 1.0, 1.0)):
    parser.add_argument("--p1", type=float, default=defaults[0],
                        help="one-qubit gate reliability")
    parser.add_argument("--p2", type=float, default=defaults[1],
                        help="two-qubit gate reliability")
    parser.add_argument("--eta", type=float, default=defaults[2],
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
    rows = []
    for f in _parse_grid(args.grid):
        if args.protocol == "bennett":
            outcome = maps.purify_bennett(f, noise)
        else:
            state = WernerState(f).to_bell_diagonal()
            outcome, _ = maps.purify_with_aux(state, state, noise, "deutsch")
        rows.append((f, outcome.out_fidelity, outcome.p_succ))
    _write_output(args, _table(["fidelity_in", "fidelity_out", "p_succ"], rows, args.format))
    return EXIT_OK


def cmd_fixed_points(args) -> int:
    noise = _noise_from_args(args)
    if args.protocol == "bennett":
        fmap = maps.bennett_map(noise)
    else:
        fmap = maps.deutsch_werner_map(noise)
    points = maps.fixed_points(fmap)
    rows = [(points.f_min, points.f_max)]
    _write_output(args, _table(["f_min", "f_max"], rows, args.format))
    return EXIT_OK


def cmd_sweep_m(args) -> int:
    noise_values = _parse_float_list(args.noise_list)
    grid = _parse_grid(args.grid)
    rows = []
    for q in noise_values:
        noise = NoiseParams.uniform(q)
        for f in grid:
            try:
                m_value = average_pairs_per_level(args.L, noise, args.protocol, f,
                                                  n_levels=args.levels)
            except InfeasibleError:
                continue
            rows.append((q, f, m_value))
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
        except json.JSONDecodeError as exc:
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
        return kind(value)

    unknown = set(file_values) - {
        "scheme", "N", "L", "p1", "p2", "eta", "f_init", "f_work",
        "tau_op", "tau_pair", "segment_km", "signal_speed",
    }
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")

    noise = NoiseParams(
        p1=pick("p1", 1.0, float),
        p2=pick("p2", 1.0, float),
        eta=pick("eta", 1.0, float),
    )
    timing = TimingModel(
        tau_op=pick("tau_op", 1e-5, float),
        tau_pair=pick("tau_pair", 3e-4, float),
        segment_km=pick("segment_km", 10.0, float),
        signal_speed=pick("signal_speed", 2e5, float),
    )
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


def _report_payload(report: RepeaterReport) -> dict:
    payload = asdict(report)
    payload["levels"] = [asdict(rec) for rec in report.levels]
    return payload


def cmd_repeater(args) -> int:
    report = simulate(_config_from_args(args), protocol=args.purifier)
    payload = _report_payload(report)
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n"
    else:
        rows = [(rec.level, rec.span_segments, rec.fidelity_in, rec.fidelity_connected,
                 rec.fidelity_achieved, rec.steps, rec.avg_pairs)
                for rec in report.levels]
        text = _table(
            ["level", "span_segments", "fidelity_in", "fidelity_connected",
             "fidelity_achieved", "steps", "avg_pairs"], rows, "tsv")
    _write_output(args, text)
    resources = (report.particles_per_node if report.scheme == "C"
                 else report.parallel_resources)
    print(
        f"scheme={report.scheme} N={report.n_segments} resources={_fmt(float(resources))} "
        f"time_s={_fmt(report.total_time)} final_fidelity={_fmt(report.final_fidelity)}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    fidelities = (0.55, 0.7, 0.85, 0.97)
    values = (1.0, 0.995, 0.99, 0.97)
    perturb = args.perturb

    worst_connect = 0.0
    worst_pf = 0.0
    worst_pp = 0.0
    for f in fidelities:
        werner = WernerState(f).to_bell_diagonal()
        for p1 in values:
            for p2 in values:
                for eta in values:
                    noise = NoiseParams(p1, p2, eta)
                    got = oracle_connect(werner, werner, noise).fidelity
                    want = maps.connect_L(f, 2, noise) + perturb
                    worst_connect = max(worst_connect, abs(got - want))
        for p2 in values:
            for eta in values:
                noise = NoiseParams(1.0, p2, eta)
                p_succ, out = oracle_purify(werner, werner, noise, "bennett")
                ref = maps.purify_bennett(f, noise)
                worst_pf = max(worst_pf, abs(out.fidelity - ref.out_fidelity - perturb))
                worst_pp = max(worst_pp, abs(p_succ - ref.p_succ))

    worst_deutsch = 0.0
    rng = np.random.default_rng(20240817)
    for _ in range(8):
        v1 = rng.random(4)
        v2 = rng.random(4)
        s1 = BellDiagonalState(tuple(v1 / v1.sum()))
        s2 = BellDiagonalState(tuple(v2 / v2.sum()))
        for p2 in (1.0, 0.995, 0.97):
            for eta in (1.0, 0.995, 0.97):
                noise = NoiseParams(1.0, p2, eta)
                p_succ, out = oracle_purify(s1, s2, noise, "deutsch")
                ref, out_cf = maps.purify_with_aux(s1, s2, noise, "deutsch")
                dev = max(abs(a - b) for a, b in zip(out.coeffs, out_cf.coeffs))
                worst_deutsch = max(worst_deutsch, dev, abs(p_succ - ref.p_succ))

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
    p.add_argument("--protocol", choices=("bennett", "deutsch"), default="bennett")
    _add_noise_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_purify_curve)

    p = sub.add_parser("fixed-points", help="fixed points of a purification map")
    p.add_argument("--protocol", choices=("bennett", "deutsch"), default="bennett")
    _add_noise_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("sweep-m", help="average copies per level vs working fidelity")
    p.add_argument("--protocol", choices=("bennett", "deutsch"), default="bennett")
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
    p.add_argument("--p1", type=float)
    p.add_argument("--p2", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--f-init", dest="f_init", type=float)
    p.add_argument("--f-work", dest="f_work", type=float)
    p.add_argument("--tau-op", dest="tau_op", type=float)
    p.add_argument("--tau-pair", dest="tau_pair", type=float)
    p.add_argument("--segment-km", dest="segment_km", type=float)
    p.add_argument("--signal-speed", dest="signal_speed", type=float)
    p.add_argument("--purifier", choices=("bennett", "deutsch"), default="deutsch",
                   help="purification protocol for scheme C")
    _add_output_flags(p, default_format="json")
    p.set_defaults(func=cmd_repeater)

    p = sub.add_parser("oracle-check",
                       help="closed-form maps vs the density-matrix simulation")
    p.add_argument("--perturb", type=float, default=0.0,
                   help="test hook: offset added to the closed forms")
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
    raise SystemExit(main())
