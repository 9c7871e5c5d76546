"""Command-line front end.

Every subcommand prints a JSON envelope {command, version, inputs_echo,
result}; result floats are rounded to 12 significant digits and the echo is
verbatim, so identical inputs on the same version produce byte-identical
output.  ``_write`` gives in one pass the bytes of ``json.dumps(...,
indent=2, sort_keys=True)``, whose indented form runs the pure-Python
encoder.  ``main`` parses argv by the flag table of the subcommand ``argv[0]``
names, which only accepts (``_table_parse``), and by argparse's top-level
parser wherever the table declines or ``argv[0]`` names no subcommand, so
every usage and error text is argparse's.  Exit codes: 0 success, 1 internal
error (a fault of the program, on one stderr line) or stdout closed early
(nothing on stderr), 2 input or validation error, 3 self-verification
failure (--verify gap).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

from . import __version__
from .channel import DEGRADED_TOL_DEFAULT, RawChannelConfig, StandardChannel, check_degraded, standardize
from .errors import ValidationError
from .optimizer import (
    CASE_BOTH_TRANSMIT,
    MIN_ORACLE_RESOLUTION,
    OBJECTIVE_JAM,
    OBJECTIVE_SUM,
    grid_oracle,
    optimal_powers_jam,
    optimal_powers_sum,
    tdma_optimal_alpha,
)
from .regions import (
    BOUNDARY_KINDS,
    KIND_TDMA,
    KIND_UNION_I_T,
    RateConstraintSet,
    RateVector,
    _as_kind,
    _region_at,
    delta_region,
    rate_split_collective,
    rate_split_individual,
    region_boundary_2d,
    tdma_region_at,
)
from .scenario import ScenarioConfig, sweep

VERIFY_GAP_TOL = 1e-6
# largest --res and --alpha-res.  A boundary evaluates its grids in blocks
# of whole rows and keeps one candidate per row and per column, so at this
# cap it peaks at ~0.84 MiB of numpy memory (tracemalloc, individual or
# union-i-t at --res 2001 --alpha-res 2001) and a CLI call at ~31 MB of RSS
# (~30 MB interpreter)
MAX_GRID_RES = 2001

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_VERIFY_FAILED = 3


def _float_text(value: float, rounded: bool) -> str:
    """``float.__repr__`` of ``value``, first rounded to 12 significant digits
    if ``rounded``; json's ValueError if that is not finite.  No two 12-digit
    decimals round to one normal float, so the ``%.12g`` text is the repr,
    with ".0" added to a fixed form without ".", except at exponents 12 to 15
    (which repr writes in fixed form), for subnormals (exponent -308 or less)
    and for what is not finite: those go through ``float``."""
    if rounded:
        text = "%.12g" % value
        if "e" in text:
            exp = int(text[text.index("e") + 1:])
            if exp > -308 and not 12 <= exp <= 15:
                return text
        elif "." in text:
            return text
        elif text[-1].isdigit():
            return text + ".0"
        value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _write(value: Any, rounded: bool, indent: str, out: list[str]) -> None:
    """Append to ``out`` the text, or raise the error, of ``json.dumps(value,
    indent=2, sort_keys=True, allow_nan=False)`` nested at ``indent`` (str
    keys), each float first rounded to 12 significant digits if ``rounded``
    (``_float_text``).  Floats and containers, most of a result, are told by
    their exact type, and a container writes its float items itself; any
    other value (a subclass, such as numpy's float64) by ``isinstance``."""
    kind = type(value)
    if kind is float:
        out.append(_float_text(value, rounded))
    elif kind is tuple or kind is list or kind is dict or isinstance(value, (list, tuple, dict)):
        keyed = isinstance(value, dict)
        out.append("{" if keyed else "[")
        inner = indent + "  "
        sep, comma = "\n" + inner, ",\n" + inner
        for item in sorted(value.items()) if keyed else value:
            if keyed:
                key, item = item
                sep += encode_basestring_ascii(key) + ": "
            out.append(sep)
            if type(item) is float:
                out.append(_float_text(item, rounded))
            else:
                _write(item, rounded, inner, out)
            sep = comma
        out.append(("\n" + indent if value else "") + ("}" if keyed else "]"))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value, rounded))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(command: str, inputs_echo: dict[str, Any], result: Any, stream=None) -> None:
    # the echo stays verbatim so feeding it back reproduces the run exactly;
    # result floats are rounded to 12 significant digits; fields in key order
    out = ["{"]
    for key, value in (("command", command), ("inputs_echo", inputs_echo),
                       ("result", result), ("version", __version__)):
        out.append(f'\n  "{key}": ' if key == "command" else f',\n  "{key}": ')
        _write(value, key == "result", "  ", out)
    out.append("\n}")
    print("".join(out), file=stream or sys.stdout)


def _echo(args: argparse.Namespace, **overrides: Any) -> dict[str, Any]:
    """The parsed flags of a subcommand, then ``overrides``."""
    echo = {name: value for name, value in vars(args).items() if name not in ("command", "func")}
    return {**echo, **overrides}


def _floats_arg(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _grid_res_arg(minimum: int):
    """argparse type of a grid-size flag: an integer from ``minimum`` to
    ``MAX_GRID_RES``."""

    def parse(text: str) -> int:
        try:
            res = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
        if res < minimum:
            raise argparse.ArgumentTypeError(f"at least {minimum} grid points, got {res}")
        if res > MAX_GRID_RES:
            raise argparse.ArgumentTypeError(f"at most {MAX_GRID_RES} grid points, got {res}")
        return res

    return parse


def _load_json(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            data = json.load(fp)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path} must contain a JSON object")
    return data


def _std_channel(args: argparse.Namespace) -> StandardChannel:
    if len(args.h) != len(args.pmax):
        raise ValidationError("--h and --pmax must have the same length")
    return StandardChannel(num_users=len(args.h), h=args.h, pmax=args.pmax)


def _cmd_standardize(args: argparse.Namespace) -> int:
    if args.config:
        raw = RawChannelConfig.from_dict(_load_json(args.config))
    else:
        needed = [args.gains_main, args.gains_tap, args.power_limits]
        if any(v is None for v in needed) or args.noise_main is None or args.noise_tap is None:
            raise ValidationError(
                "either --config or all of --gains-main/--gains-tap/--noise-main/"
                "--noise-tap/--power-limits are required"
            )
        raw = RawChannelConfig(
            num_users=len(args.gains_main),
            gains_main=args.gains_main,
            gains_tap=args.gains_tap,
            noise_var_main=args.noise_main,
            noise_var_tap=args.noise_tap,
            power_limits=args.power_limits,
        )
    std = standardize(raw)
    report = check_degraded(std, args.tol)
    _emit(
        "standardize",
        {"raw": raw.to_dict(), "tol": args.tol},
        {"standard_channel": std.to_dict(), "degradedness": report.to_dict()},
    )
    return EXIT_OK


def _region_kind_arg(text: str) -> str:
    return text.strip().lower()


def _constraint_set(std: StandardChannel, kind: str, args: argparse.Namespace) -> RateConstraintSet:
    """The fixed-power set of ``kind`` at ``--power``, over total rates
    when ``--delta`` is given; tdma time shares default to the optimum."""
    if kind == KIND_TDMA:
        region = tdma_region_at(std, args.power, args.alpha or tdma_optimal_alpha(args.power))
    elif kind == KIND_UNION_I_T:
        raise ValidationError(f"fixed-power constraint sets are not defined for kind {args.kind}")
    else:
        region = _region_at(std, kind, args.power)
    return region if args.delta is None else delta_region(region, args.delta)


def _cmd_region(args: argparse.Namespace) -> int:
    std = _std_channel(args)
    kind = _as_kind(args.kind)
    if args.alpha is not None and (kind != KIND_TDMA or args.power is None):
        raise ValidationError("--alpha sets the time shares of a fixed-power tdma set; "
                              "it needs --kind tdma and --power")
    echo = _echo(args)
    if args.power is not None:
        if args.format == "csv":
            raise ValidationError("constraint sets serialize to JSON; csv is for boundaries")
        _emit("region", echo, {"constraint_set": _constraint_set(std, kind, args).to_json_dict()})
        return EXIT_OK
    boundary = region_boundary_2d(
        std,
        kind,
        delta=args.delta if args.delta is not None else 1.0,
        power_grid_res=args.res,
        alpha_grid_res=args.alpha_res,
    )
    if args.format == "csv":
        sys.stdout.write(boundary.to_csv_string())
        return EXIT_OK
    _emit(
        "region",
        echo,
        {
            "boundary": {
                "vertices": boundary.vertices,
                "generator_count": boundary.generator_count,
                "max_sum": boundary.max_sum(),
            }
        },
    )
    return EXIT_OK


def _cmd_power_opt(args: argparse.Namespace) -> int:
    if len(args.h) != 2 or len(args.pmax) != 2:
        raise ValidationError("power optimization is two-user: --h and --pmax need two entries")
    which = args.command  # "sumopt" or "jam"
    solver = optimal_powers_sum if which == "sumopt" else optimal_powers_jam
    alloc = solver(args.h, args.pmax)
    result: dict[str, Any] = {"allocation": alloc.to_dict()}
    exit_code = EXIT_OK
    if args.verify:
        # a jamming request that fell back to both-transmit solved the
        # sum-rate problem, so that is the objective to verify against
        both = which == "sumopt" or alloc.case_label == CASE_BOTH_TRANSMIT
        objective = OBJECTIVE_SUM if both else OBJECTIVE_JAM
        oracle = grid_oracle(objective, args.h, args.pmax, resolution=args.res)
        gap = abs(alloc.achieved_rate - oracle.achieved_rate)
        result["oracle"] = oracle.to_dict()
        result["oracle_objective"] = objective
        result["verify_gap"] = gap
        if gap > VERIFY_GAP_TOL:
            exit_code = EXIT_VERIFY_FAILED
    _emit(which, _echo(args), result)
    return exit_code


def _cmd_tdma(args: argparse.Namespace) -> int:
    std = _std_channel(args)
    # all-zero powers have no optimal shares, but given shares still set a region
    optimal = None if args.alpha and not any(args.power) else tdma_optimal_alpha(args.power)
    region = _constraint_set(std, KIND_TDMA, args)
    _emit("tdma", _echo(args), {"optimal_alpha": optimal, "region": region.to_json_dict()})
    return EXIT_OK


def _cmd_split(args: argparse.Namespace) -> int:
    std = _std_channel(args)
    rates = RateVector(secret=args.secret, open=args.open or tuple(0.0 for _ in args.secret))
    splitter = rate_split_individual if args.kind == "individual" else rate_split_collective
    outcome = splitter(std, args.power, rates)
    _emit(
        "split",
        _echo(args, open=rates.open),
        {
            "feasible": outcome.feasible,
            "extra": outcome.extra,
            "binding": outcome.binding,
        },
    )
    return EXIT_OK


def _cmd_scenario(args: argparse.Namespace) -> int:
    config = ScenarioConfig.from_dict(_load_json(args.config))
    result = sweep(config)
    zero_jam, zero_nojam = result.zero_rate_counts()
    summary = {
        "cells": len(result),
        "zero_rate_cells_jam": zero_jam,
        "zero_rate_cells_nojam": zero_nojam,
        "out": args.out,
    }
    echo = {"config": config.to_dict(), "out": args.out}
    if args.out:
        try:  # opened only now, so a refused config leaves no file behind
            fp = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot write {args.out}: {exc}") from exc
        with fp:
            result.to_csv(fp)
        _emit("scenario", echo, summary)
    else:
        result.to_csv(sys.stdout)
        _emit("scenario", echo, summary, stream=sys.stderr)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser and its subcommands' flag ``tables`` (by name), built
    once and shared: ``main`` reuses them, so a caller must not change them."""
    parser = argparse.ArgumentParser(
        prog="macwiretap",
        description="Secrecy rate regions and power allocation for the two-user "
        "Gaussian multiple-access wiretap channel",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("standardize", help="transform a physical channel to standard form")
    p.add_argument("--config", help="JSON file with the physical channel description")
    p.add_argument("--gains-main", type=_floats_arg, help="per-user receiver gains")
    p.add_argument("--gains-tap", type=_floats_arg, help="per-user eavesdropper gains")
    p.add_argument("--noise-main", type=float, help="receiver noise variance")
    p.add_argument("--noise-tap", type=float, help="eavesdropper noise variance")
    p.add_argument("--power-limits", type=_floats_arg, help="per-user average power limits")
    p.add_argument("--tol", type=float, default=DEGRADED_TOL_DEFAULT, help="degradedness tolerance")
    p.set_defaults(func=_cmd_standardize)

    p = sub.add_parser("region", help="rate region boundary or fixed-power constraint set")
    p.add_argument(
        "--kind",
        type=_region_kind_arg,
        required=True,
        choices=[kind.lower().replace("_", "-") for kind in BOUNDARY_KINDS],
    )
    p.add_argument("--h", type=_floats_arg, required=True, help="standardized eavesdropper gains")
    p.add_argument("--pmax", type=_floats_arg, required=True, help="standardized power limits")
    p.add_argument(
        "--delta",
        type=float,
        default=None,
        help="secret fraction in (0, 1]; boundaries default to 1, fixed-power "
        "sets stay in (secret, open) coordinates when omitted",
    )
    p.add_argument("--res", type=_grid_res_arg(2), default=101,
                   help="power grid resolution per axis; an axis whose bounds all grow with that "
                   "user's power is evaluated at full power alone (see README)")
    p.add_argument("--alpha-res", type=_grid_res_arg(2), default=101, help="time-share grid resolution")
    p.add_argument("--power", type=_floats_arg, help="fixed power: emit the constraint set instead")
    p.add_argument("--alpha", type=_floats_arg, help="time shares for the fixed-power tdma set")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_region)

    for name, text in (("sumopt", "secrecy sum-rate maximizing powers"),
                       ("jam", "cooperative-jamming power allocation")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--h", type=_floats_arg, required=True)
        p.add_argument("--pmax", type=_floats_arg, required=True)
        p.add_argument("--verify", action="store_true", help="cross-check against the grid oracle")
        p.add_argument(
            "--res", type=_grid_res_arg(MIN_ORACLE_RESOLUTION), default=201,
            help="oracle grid resolution",
        )
        p.set_defaults(func=_cmd_power_opt)

    p = sub.add_parser("tdma", help="optimal time shares and the time-division region")
    p.add_argument("--h", type=_floats_arg, required=True)
    p.add_argument("--pmax", type=_floats_arg, required=True)
    p.add_argument("--power", type=_floats_arg, required=True)
    p.add_argument("--alpha", type=_floats_arg, help="time shares (defaults to the optimum)")
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(func=_cmd_tdma)

    p = sub.add_parser("split", help="randomization-rate witnesses for a rate point")
    p.add_argument("--kind", choices=["individual", "collective"], required=True)
    p.add_argument("--h", type=_floats_arg, required=True)
    p.add_argument("--pmax", type=_floats_arg, required=True)
    p.add_argument("--power", type=_floats_arg, required=True)
    p.add_argument("--secret", type=_floats_arg, required=True, help="per-user secret rates")
    p.add_argument("--open", type=_floats_arg, help="per-user open rates (default zero)")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("scenario", help="mobile-eavesdropper sweep over a position grid")
    p.add_argument("--config", required=True, help="scenario JSON config")
    p.add_argument("--out", help="CSV output path (stdout when omitted)")
    p.set_defaults(func=_cmd_scenario)

    parser.tables = {name: _flag_table(p) for name, p in sub.choices.items()}
    return parser


def _flag_table(p: argparse.ArgumentParser) -> tuple[dict[str, argparse.Action], dict[str, Any], set[str]]:
    """The flags of ``p``'s store and store_true actions, the namespace
    argparse starts from (each default, then ``func``) and the required dests."""
    flags = {flag: action for action in p._actions
             if type(action) in (argparse._StoreAction, argparse._StoreTrueAction)
             for flag in action.option_strings}
    defaults = {a.dest: a.default for a in p._actions if a.default is not argparse.SUPPRESS}
    return flags, {**defaults, "func": p.get_default("func")}, {a.dest for a in p._actions if a.required}


def _table_parse(argv: Sequence[str], flags, defaults, required) -> argparse.Namespace | None:
    """argparse's namespace for the subcommand ``argv[0]`` when the rest is
    exact ``--flag value`` or ``--flag=value`` pairs and bare store_true
    flags, no value starts with "-", each converts by its flag's type into
    its choices and every required flag is there; else None (argparse parses)."""
    parsed = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, text = token.partition("=")
        action = flags.get(flag)
        if action is not None and action.nargs == 0 and not eq:
            parsed[action.dest] = action.const
            continue
        text = text if eq else next(tokens, "-")  # a missing value declines as "-" does
        if action is None or action.nargs == 0 or text.startswith("-"):
            return None
        try:
            value = action.type(text) if action.type else text
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        parsed[action.dest] = value  # a repeated flag keeps its last value, as in argparse
    return argparse.Namespace(command=argv[0], **(defaults | parsed)) if required <= parsed.keys() else None


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    table = parser.tables.get(argv[0]) if argv else None
    args = table and _table_parse(argv, *table)
    return parser.parse_args(argv) if args is None else args


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # what is still buffered goes to devnull, not to exit's flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INTERNAL
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # a fault of the program, never of the input
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
