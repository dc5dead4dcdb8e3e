"""Command-line surface: price contracts, emit figure data, validate.

Subcommands: `price` (one contract, one method), `figure` (CSV data behind
the six standard experiment figures), `grid` (free-form parameter sweeps),
and `validate` (the acceptance suite).  Exit codes: 0 ok, 1 validation
failure, 2 bad input, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__, validation
from .config import CONTRACTS, METHODS, PRICERS, SCHEMA, ExperimentConfig
from .exact_pricing import bs_put  # noqa: F401 (perfbench's tracer tests call cli.bs_put)
from .surface import PriceSurface

def _parse_vector(text):
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _parse_matrix(text):
    return [_parse_vector(row) for row in text.split(";")]


_METAVARS = {_parse_vector: "A,B", _parse_matrix: "A,B;C,D"}


def _flag_parser(default):
    if not isinstance(default, list):
        return float
    return _parse_matrix if isinstance(default[0], list) else _parse_vector


def _contract_flags():
    """{field: (parser, contracts)}: one flag per field of the contract defaults."""
    flags = {}
    for contract in CONTRACTS:
        for name, default in SCHEMA[contract].items():
            flags.setdefault(name, (_flag_parser(default), []))[1].append(contract)
    return flags


CONTRACT_FLAGS = _contract_flags()


def _collect_overrides(args, contract):
    overrides = {"contract": contract, "method": args.method, "order": args.order}
    for name, (_, contracts) in CONTRACT_FLAGS.items():
        value = getattr(args, name)
        if value is None:
            continue
        if contract not in contracts:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to {contract}")
        overrides[f"{contract}.{name}"] = value
    return overrides


def _load_config(args, contract):
    return ExperimentConfig.from_sources(args.config, _collect_overrides(args, contract))


# ---------------------------------------------------------------------------
# pricing dispatch
# ---------------------------------------------------------------------------


def _prices(config, methods, overrides=None):
    """{method: price} of the configured contract with its fields overridden, from one spec.

    Array-valued overrides price a whole sweep in one call per method.
    """
    spec, pricers = config.spec(**(overrides or {})), PRICERS[config.contract]
    return {method: pricers[method](spec, config.order) for method in dict.fromkeys(methods)}


def _axis(config, key, default_start, default_stop, default_points, name):
    # ExperimentConfig.validate has checked the types and the point count
    axis_cfg = config.grid.get(key) or {}
    start = axis_cfg.get("start", default_start)
    stop = axis_cfg.get("stop", default_stop)
    if stop <= start:
        raise ValueError(f"{name}: need stop > start")
    return np.linspace(start, stop, axis_cfg.get("points", default_points))


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def _metadata(config, extra):
    meta = {
        "generator": f"putpricer {__version__}",
        "contract": config.contract,
        "order": str(config.order),
    }
    for key, value in sorted(config.contract_summary().items()):
        meta[f"param-{key}"] = repr(value)
    meta.update(extra)
    return meta


def _surface(config, headers, sweep, columns, extra):
    """The one sweep builder: `columns` priced over the `sweep` axes, one call per method.

    A column is (header, method, method subtracted from it or None); the
    axes are (swept field, values) pairs, written under `headers`.
    """
    methods = [name for _, method, base in columns for name in (method, base) if name]
    prices = _prices(config, methods, _sweep_overrides(config, sweep))
    return PriceSurface(
        axis_names=headers, axes=tuple(values for _, values in sweep),
        value_names=tuple(header for header, _, _ in columns),
        values=tuple(prices[method] if base is None else prices[method] - prices[base]
                     for _, method, base in columns),
        metadata=_metadata(config, extra))


# figure: (contract, axes, columns, metadata).  An axis is (config key, swept
# field, header, default start, stop and points), where a stop that names a
# field reads it from the contract; a column is (header, method, method
# subtracted from it or None).
_SPOT_AXIS = ("axis1", "spot", "S", 0.0, 100.0, 201)
_BASKET_AXES = (("axis1", "spot1", "S1", 20.0, 60.0, 41), ("axis2", "spot2", "S2", 20.0, 60.0, 41))
_QUANTO_AXES = (("axis1", "s1", "S1", 20.0, 60.0, 41), ("axis2", "s2", "S2", 20.0, 60.0, 41))
_PRICE = (("price", "exact", None),)
_ERROR = (("error", "hpm2", "exact"),)
_NOTE = {"defaults-note": "strike, maturity and any zero cross-covariance/dividend entries "
                          "are library defaults, not externally prescribed"}
_FIGURES = {
    1: ("single", (_SPOT_AXIS,),
        (("exact", "exact", None), ("hpm1", "hpm1", None), ("hpm2", "hpm2", None)),
        {"methods": "exact,hpm1,hpm2"}),
    2: ("single", (_SPOT_AXIS, ("axis2", "valuation_time", "t", 0.0, "maturity", 51)),
        _ERROR, {"error": "hpm2 - exact"}),
    3: ("basket", _BASKET_AXES, _PRICE, {"method": "exact", **_NOTE}),
    4: ("basket", _BASKET_AXES, _ERROR, {"error": "series - exact", **_NOTE}),
    5: ("quanto", _QUANTO_AXES, _PRICE, {"method": "exact", **_NOTE}),
    6: ("quanto", _QUANTO_AXES, _ERROR, {"error": "series - exact", **_NOTE}),
}


def figure_surface(figure_id, config):
    """Build the data behind one of the six standard figures as one grid sweep."""
    _, axes, columns, extra = _FIGURES[figure_id]
    if len(axes) < 2 and config.grid.get("axis2"):
        raise ValueError(f"figure {figure_id} has one axis; --points2 does not apply, "
                         "nor does a config file's grid.axis2")
    sweep = []
    for key, name, _, start, stop, points in axes:
        if isinstance(stop, str):
            stop = config.contract_summary()[stop]
        sweep.append((name, _axis(config, key, start, stop, points, f"{name} axis")))
    return _surface(config, tuple(axis[2] for axis in axes), sweep, columns,
                    {"figure": str(figure_id), **extra})


# ---------------------------------------------------------------------------
# grid sweeps
# ---------------------------------------------------------------------------

_BASKET_SPOT_AXES = {"spot1": 0, "spot2": 1}


def _sweep_overrides(config, axes):
    """Spec overrides that sweep axis 1 as `(n1, 1)` against axis 2 as `(n2,)`."""
    names = [name for name, _ in axes]
    if len(set(names)) < len(names):
        raise ValueError(f"both axes sweep {names[0]!r}; choose two different parameters")
    section = config.contract_summary()
    shape = tuple(len(values) for _, values in axes)
    n_spots = len(section.get("spots", ()))  # basket assets; 0 for the other contracts
    overrides = {}
    for dim, (name, values) in enumerate(axes):
        values = np.reshape(values, (-1,) + (1,) * (len(axes) - 1 - dim))
        column = _BASKET_SPOT_AXES.get(name, n_spots)
        if column < n_spots:
            # spot1/spot2 write their columns of one (n1[, n2], n) spots array
            spots = overrides.setdefault(
                "spots", np.full(shape + (n_spots,), section["spots"], dtype=float))
            spots[..., column] = values
        elif name in section and not isinstance(section[name], list):
            overrides[name] = values
        else:
            raise ValueError(f"axis {name!r} is not a scalar parameter of {config.contract}")
    return overrides


def grid_surface(config, axis1, axis2=None):
    """Sweep the configured method over one or two scalar parameters in one array call."""
    axes = (axis1,) if axis2 is None else (axis1, axis2)
    columns = (("price", config.method, None),)
    if axis2 is None and config.method != "exact":
        columns += (("exact", "exact", None), ("error", config.method, "exact"))
    return _surface(config, tuple(name for name, _ in axes), axes, columns,
                    {"method": config.method})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_price(args):
    config = _load_config(args, args.contract)
    prices = _prices(config, (config.method, "exact"))
    value, exact = prices[config.method], prices["exact"]
    print(f"contract:  {config.contract}")
    method = config.method
    if method == "hpm2":
        method += f" (order {config.order})"
    print(f"method:    {method}")
    params = " ".join(
        f"{key}={value_!r}" for key, value_ in sorted(config.contract_summary().items())
    )
    print(f"params:    {params}")
    print(f"price:     {value:.12g}")
    if config.method != "exact":
        print(f"exact:     {exact:.12g}")
        print(f"deviation: {value - exact:+.6e}")
    return 0


def cmd_figure(args):
    config = _load_config(args, _FIGURES[args.figure][0])
    for key, points in (("axis1", args.points), ("axis2", args.points2)):
        if points is not None:
            config.grid[key] = {**(config.grid.get(key) or {}), "points": points}
            config.validate()
    surface = figure_surface(args.figure, config)
    surface.write_csv(args.out)
    print(f"figure {args.figure}: wrote {surface.n_rows} data rows to {args.out}")
    return 0


def cmd_grid(args):
    config = _load_config(args, args.contract)
    axes = []
    for name, start, stop, points in ((args.axis, args.start, args.stop, args.points),
                                      (args.axis2, args.start2, args.stop2, args.points2)):
        if (name, start, stop, points) == (None, None, None, None):
            continue
        if None in (name, start, stop, points):
            raise ValueError("--axis2 requires --start2, --stop2 and --points2, "
                             "and each of them requires --axis2")
        if points < 2 or stop <= start:
            raise ValueError(f"grid axis {name!r} needs at least 2 points and stop > start")
        axes.append((name, np.linspace(start, stop, points)))
    surface = grid_surface(config, *axes)
    surface.write_csv(args.out)
    print(f"grid sweep: wrote {surface.n_rows} data rows to {args.out}")
    return 0


def cmd_validate(args):
    results = validation.run_all(args.profile)
    width = max(len(r.name) for r in results)
    print(f"{'check':<{width}}  {'measured':>14}  {'bound':<44} status")
    for r in results:
        print(f"{r.name:<{width}}  {r.measured:>14.6e}  {r.bound:<44} {r.status}")
    failures = [r for r in results if r.severity == "check" and not r.passed]
    warns = [r for r in results if r.severity == "diagnostic" and not r.passed]
    print(f"\n{len(results)} checks: {len(failures)} failed, {len(warns)} informational")
    return 1 if failures else 0


def _common_parser():
    """Method, order, config file and contract flags, shared by price, figure and grid."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--method", choices=METHODS)
    common.add_argument("--order", type=int)
    common.add_argument("--config", help="JSON config file")
    group = common.add_argument_group("contract parameters")
    for name, (parser, contracts) in CONTRACT_FLAGS.items():
        group.add_argument(f"--{name.replace('_', '-')}", dest=name, type=parser,
                           metavar=_METAVARS.get(parser), help=", ".join(contracts))
    return common


def build_parser():
    parser = argparse.ArgumentParser(
        prog="putpricer",
        description="European put pricing: closed forms, smoothed series, and "
                    "figure reproduction",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_parser()]

    p_price = sub.add_parser("price", parents=common, help="price a single contract")
    p_price.add_argument("contract", choices=CONTRACTS)
    p_price.set_defaults(func=cmd_price)

    p_fig = sub.add_parser("figure", parents=common, help="emit CSV data for figures 1-6")
    p_fig.add_argument("figure", type=int, choices=tuple(range(1, 7)))
    p_fig.add_argument("--out", required=True, help="CSV output path")
    p_fig.add_argument("--points", type=int, help="points on the first axis")
    p_fig.add_argument("--points2", type=int, help="points on the second axis")
    p_fig.set_defaults(func=cmd_figure)

    p_grid = sub.add_parser("grid", parents=common,
                            help="sweep a method over parameter ranges")
    p_grid.add_argument("contract", choices=CONTRACTS)
    p_grid.add_argument("--axis", required=True)
    p_grid.add_argument("--start", type=float, required=True)
    p_grid.add_argument("--stop", type=float, required=True)
    p_grid.add_argument("--points", type=int, required=True)
    p_grid.add_argument("--axis2")
    p_grid.add_argument("--start2", type=float)
    p_grid.add_argument("--stop2", type=float)
    p_grid.add_argument("--points2", type=int)
    p_grid.add_argument("--out", required=True)
    p_grid.set_defaults(func=cmd_grid)

    p_val = sub.add_parser("validate", help="run the acceptance checks")
    p_val.add_argument("--profile", choices=("default", "strict"), default="default")
    p_val.set_defaults(func=cmd_validate)
    return parser


@functools.cache
def _shared_parser():
    # built on the first call of a process and reused: parse_args leaves the tree unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
