import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from putpricer import cli, hpm_series, validation
from putpricer.cli import main
from putpricer.config import (
    DEFAULT_BASKET,
    DEFAULT_QUANTO,
    DEFAULT_SINGLE,
    PRICERS,
    SCHEMA,
    ExperimentConfig,
)
from putpricer.exact_pricing import basket_put_exact
from putpricer.surface import PriceSurface

README = Path(__file__).resolve().parents[1] / "README.md"


def read_csv(path):
    metadata = {}
    rows = []
    header = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            metadata[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return metadata, header, np.array(rows)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_defaults_validate():
    cfg = ExperimentConfig.from_sources()
    assert cfg.contract == "single" and cfg.method == "exact" and cfg.order == 6
    assert cfg.single["vol"] == 0.324336
    assert cfg.quanto["rho"] == 1.0 and cfg.quanto["q"] == 0.0
    assert cfg.basket["covariance"][0][1] == 0.0


def test_flag_beats_file_beats_default(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"single": {"spot": 55.0}, "method": "hpm1"}))
    cfg = ExperimentConfig.from_sources(path, {"single.spot": 60.0})
    assert cfg.single["spot"] == 60.0        # flag wins
    assert cfg.method == "hpm1"              # file beats default
    assert cfg.single["strike"] == 40.0      # default survives


def test_unknown_keys_fail_closed(tmp_path):
    for payload in (
        {"bogus": 1},
        {"single": {"spott": 40.0}},
        {"grid": {"axis3": {}}},
        {"grid": {"axis1": {"name": "spot", "begin": 0}}},
        # removed options fail closed like any other unknown key
        {"threads": 0},
        {"grid": {"axis1": {"name": "spot"}}},
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unknown config key"):
            ExperimentConfig.from_sources(path)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        ExperimentConfig.from_sources(path)


def test_method_contract_compatibility():
    with pytest.raises(ValueError, match="does not apply"):
        ExperimentConfig.from_sources(None, {"contract": "quanto", "method": "hpm1"})
    with pytest.raises(ValueError, match="method must be one of"):
        ExperimentConfig.from_sources(None, {"contract": "basket",
                                             "method": "basket-literal"})


def test_order_cap_follows_max_order(monkeypatch):
    with pytest.raises(ValueError, match=r"in \[1, 6\], got 7$"):
        ExperimentConfig.from_sources(None, {"order": 7})
    # the cap is read from hpm_series.MAX_ORDER, not restated
    monkeypatch.setattr(hpm_series, "MAX_ORDER", 4)
    assert ExperimentConfig.from_sources(None, {"order": 4}).order == 4
    with pytest.raises(ValueError, match=r"in \[1, 4\], got 5$"):
        ExperimentConfig.from_sources(None, {"order": 5})


def test_boolean_order_refused_at_load(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"order": True}))
    with pytest.raises(ValueError, match="order must be an integer, got True"):
        ExperimentConfig.from_sources(path)


@pytest.mark.parametrize("axis", [
    {"points": "7"}, {"points": 2.9}, {"points": True}, {"points": 1},
    {"start": "0"}, {"stop": None}, {"stop": math.inf}, {"start": False},
    {"start": 50.0, "stop": 10.0}, 5,
])
def test_bad_figure_axis_config_exits_2(axis, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {"axis1": axis}}))
    assert main(["figure", "1", "--out", str(tmp_path / "f.csv"),
                 "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "f.csv").exists()


def _key_paths(tree, prefix=""):
    paths = set()
    for key, value in tree.items():
        paths.add(prefix + key)
        if isinstance(value, dict):
            paths |= _key_paths(value, f"{prefix}{key}.")
    return paths


def test_readme_schema_matches_loader(tmp_path):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### JSON configuration"):]
    block = section[section.index("```json") + len("```json"):]
    documented = json.loads(block[:block.index("```")])
    assert _key_paths(documented) == _key_paths(SCHEMA)
    # apart from the two keys that list their choices, the example loads
    del documented["contract"], documented["method"]
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(documented))
    assert ExperimentConfig.from_sources(path).grid == documented["grid"]


# every field of every contract's defaults is one flag, applicable exactly
# where the field exists
CONTRACT_DEFAULTS = {"single": DEFAULT_SINGLE, "basket": DEFAULT_BASKET,
                     "quanto": DEFAULT_QUANTO}


def _flag_sample(default):
    if isinstance(default, list) and isinstance(default[0], list):
        return "1,2;3,4", [[1.0, 2.0], [3.0, 4.0]]
    if isinstance(default, list):
        return "1.5,2.5", [1.5, 2.5]
    return "12.5", 12.5


@pytest.mark.parametrize(
    "name", sorted({name for defaults in CONTRACT_DEFAULTS.values() for name in defaults})
)
def test_every_contract_field_is_a_flag(name, monkeypatch, capsys):
    # domain checks are not under test here: let any parsed value land
    monkeypatch.setattr(ExperimentConfig, "validate", lambda self: self)
    flag = "--" + name.replace("_", "-")
    owner = next(c for c, d in CONTRACT_DEFAULTS.items() if name in d)
    text, value = _flag_sample(CONTRACT_DEFAULTS[owner][name])
    for contract, defaults in CONTRACT_DEFAULTS.items():
        if name in defaults:
            args = cli.build_parser().parse_args(["price", contract, flag, text])
            config = cli._load_config(args, contract)
            assert getattr(config, contract)[name] == value
        else:
            assert main(["price", contract, flag, text]) == 2
            assert f"{flag} does not apply to {contract}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------


def test_surface_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        PriceSurface(axis_names=("a",), axes=([1.0, 2.0],),
                     value_names=("v",), values=([1.0, 2.0, 3.0],))
    with pytest.raises(ValueError, match="non-finite"):
        PriceSurface(axis_names=("a",), axes=([1.0, 2.0],),
                     value_names=("v",), values=([1.0, math.inf],))


def test_surface_csv_format(tmp_path):
    surface = PriceSurface(
        axis_names=("s",), axes=([1.0, 2.5],),
        value_names=("price",), values=([0.1, 123456.789],),
        metadata={"b-key": "two", "a-key": "one"},
    )
    path = tmp_path / "s.csv"
    surface.write_csv(path)
    raw = path.read_bytes()
    assert b"\r" not in raw                      # LF only
    text = raw.decode("utf-8").splitlines()
    assert text[0] == "# a-key: one"             # sorted metadata
    assert text[2] == "s,price"
    assert text[3] == "1.00000000000e+00,1.00000000000e-01"
    assert "1.23456789000e+05" in text[4]        # 12 significant digits


# ---------------------------------------------------------------------------
# price command
# ---------------------------------------------------------------------------


def test_price_single_exact_regression(capsys):
    assert main(["price", "single", "--method", "exact", "--spot", "40"]) == 0
    out = capsys.readouterr().out
    assert "3.13416497256" in out


def test_price_single_at_spot_zero_prices_the_limit(capsys):
    # S = 0 gives E e^{-r(T-t)} exactly; the even-order series clamps to 0 there
    # and the odd-order one, unbounded, is refused
    assert main(["price", "single", "--method", "exact", "--spot", "0"]) == 0
    assert "price:     39.0123964811\n" in capsys.readouterr().out
    assert main(["price", "single", "--method", "hpm2", "--spot", "0"]) == 0
    assert "price:     0\n" in capsys.readouterr().out
    assert main(["price", "single", "--method", "hpm2", "--order", "5", "--spot", "0"]) == 2
    assert "error: the odd-order series is unbounded at spot 0" in capsys.readouterr().err


def test_price_single_tiny_spot_hits_discount_bound(capsys):
    assert main(["price", "single", "--method", "exact", "--spot", "0.0001"]) == 0
    out = capsys.readouterr().out
    price = float([l for l in out.splitlines() if l.startswith("price:")][0].split()[1])
    assert price == pytest.approx(40.0 * math.exp(-0.05 * 0.5), abs=2e-4)


@pytest.mark.filterwarnings("error")
def test_price_single_vanishing_vol_prints_no_warning(capsys):
    # d1, d2 ~ 1e198: the normal CDFs saturate without an overflow warning
    assert main(["price", "single", "--vol", "1e-200"]) == 0
    captured = capsys.readouterr()
    assert "price:     0\n" in captured.out
    assert captured.err == ""


def test_price_quanto_exact_regression(capsys):
    assert main(["price", "quanto", "--method", "exact"]) == 0
    assert "96.9560413994" in capsys.readouterr().out


def test_price_reports_deviation_for_series_methods(capsys):
    assert main(["price", "single", "--method", "hpm2", "--order", "5"]) == 0
    out = capsys.readouterr().out
    assert "deviation:" in out and "exact:" in out


def test_bad_inputs_exit_2(tmp_path, capsys):
    for spot in ("-1", "nan", "inf"):
        assert main(["price", "single", "--spot", spot]) == 2
        assert "spot must be" in capsys.readouterr().err
    assert main(["price", "quanto", "--rate", "0.05"]) == 2
    assert main(["price", "single", "--order", "9"]) == 2
    out = tmp_path / "f.csv"
    assert main(["figure", "1", "--out", str(out), "--points", "1"]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["price", "single", "--rate", "-10", "--maturity", "100"],
    ["price", "basket", "--rate", "-10", "--maturity", "100"],
    ["price", "quanto", "--r1", "-10", "--maturity", "100"],
    ["grid", "single", "--axis", "rate", "--start", "-10", "--stop", "-9", "--points", "3",
     "--maturity", "100"],
    ["figure", "1", "--rate", "-10", "--maturity", "100"],
], ids=["single", "basket", "quanto", "grid", "figure"])
def test_overflowing_discount_factor_exits_2(argv, tmp_path, capsys):
    # a discount factor near e^{1000} is past float range: an input error, not a crash
    out = tmp_path / "out.csv"
    assert main(argv + (["--out", str(out)] if argv[0] != "price" else [])) == 2
    assert not out.exists()
    assert re.search(r"error: exp\(100[01]\.0\) is out of float range", capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["price", "single", "--vol", "1e-200", "--method", "hpm2"],
    ["price", "single", "--vol", "1e-200", "--method", "hpm1"],
    ["figure", "1", "--vol", "1e-200"],
    ["price", "basket", "--covariance", "1e-300,0;0,1e-300", "--method", "hpm2"],
    ["price", "single", "--vol", "1e200", "--method", "hpm2"],
    ["price", "single", "--vol", "1e150", "--method", "hpm2"],
    ["price", "basket", "--covariance", "1e300,0;0,1e300", "--method", "hpm2"],
    ["price", "single", "--vol", "1e200"],
    ["price", "single", "--rate", "-10", "--vol", "0.3", "--maturity", "100", "--method", "hpm1"],
    ["price", "single", "--vol", "1e200", "--method", "hpm1"],
], ids=["vol-underflow-hpm2", "vol-underflow-hpm1", "vol-underflow-figure",
        "series-overflow-basket", "tau-overflow-hpm2", "tau-past-cap-hpm2",
        "tau-past-cap-basket", "variance-overflow-exact", "growth-overflow-hpm1",
        "tau-overflow-hpm1"])
@pytest.mark.filterwarnings("error")
def test_extreme_parameters_fail_closed(argv, tmp_path, capsys):
    # vol^2 underflows to 0, the basket's k1 ~ 2e299 overflows the series
    # coefficients, tau ~ 1e299 its powers, vol^2 T the closed form's d1 and
    # e^{-k tau} = e^{1000} hpm1's factor, and k tau = 0 * inf the same factor
    # at rate 0 and tau = inf: one error line and exit 2, never a
    # warning, a traceback or a nan, 0 or inf price
    if argv[0] == "figure":
        argv = argv + ["--out", str(tmp_path / "f.csv")]
    assert main(argv) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1


def test_shared_parser_parses_each_argv_afresh(capsys):
    # the argparse tree is built once per process; parsing must not leave
    # state behind in it
    assert main(["price", "single", "--vol", "0.2"]) == 0
    first = capsys.readouterr().out
    assert main(["price", "single"]) == 0
    second = capsys.readouterr().out
    assert "vol=0.2\n" in first and "vol=0.324336\n" in second
    parser = cli._shared_parser()
    quanto = parser.parse_args(["price", "quanto", "--rho", "0.5"])
    check = parser.parse_args(["validate"])
    assert (quanto.contract, quanto.rho) == ("quanto", 0.5)
    assert check.command == "validate" and not hasattr(check, "rho")
    assert parser.parse_args(["price", "quanto"]).rho is None
    assert cli._shared_parser() is parser


def test_bad_config_file_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mystery": True}))
    assert main(["price", "single", "--config", str(path)]) == 2


def test_removed_basket_literal_method_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["price", "basket", "--method", "basket-literal"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'basket-literal'" in capsys.readouterr().err
    # an older config file that names it fails closed the same way
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"method": "basket-literal"}))
    assert main(["price", "basket", "--config", str(path)]) == 2
    assert "method must be one of" in capsys.readouterr().err
    # so do the other removed flags
    out = str(tmp_path / "f.csv")
    for argv in (
        ["figure", "1", "--out", out, "--threads", "2"],
        ["grid", "single", "--axis", "spot", "--start", "20", "--stop", "60",
         "--points", "3", "--out", out, "--threads", "2"],
        ["validate", "--config", str(path)],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# figure command
# ---------------------------------------------------------------------------


def test_figure1_shape_and_tails(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    assert main(["figure", "1", "--out", str(out)]) == 0
    metadata, header, rows = read_csv(out)
    assert header == ["S", "exact", "hpm1", "hpm2"]
    assert rows.shape == (201, 4)
    assert metadata["figure"] == "1"
    # S = 0 row carries the discounted-strike boundary value
    assert rows[0, 0] == 0.0
    assert rows[0, 1] == pytest.approx(40.0 * math.exp(-0.025), rel=1e-12)
    # S = 100 row: deep out of the money, both routes near zero
    assert rows[-1, 0] == 100.0
    assert abs(rows[-1, 1]) < 1e-3 and abs(rows[-1, 3]) < 1e-3
    assert abs(rows[-1, 1] - rows[-1, 3]) < 1e-3


def test_figure1_byte_stable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["figure", "1", "--out", str(a)]) == 0
    assert main(["figure", "1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_figure6_error_below_frozen_bound(tmp_path):
    out = tmp_path / "fig6.csv"
    assert main(["figure", "6", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["S1", "S2", "error"]
    assert np.abs(rows[:, 2]).max() <= 1.05 * validation.EPS2_QUANTO_SURFACE


def test_figure4_error_below_frozen_bound(tmp_path):
    out = tmp_path / "fig4.csv"
    assert main(["figure", "4", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert np.abs(rows[:, 2]).max() <= 1.05 * validation.EPS3_BASKET_SURFACE


# figure: (contract, the figure's default axes, the method behind each column)
FIGURE_SWEEPS = {
    1: ("single", [("spot", np.linspace(0.0, 100.0, 201))], ("exact", "hpm1", "hpm2")),
    3: ("basket", [("spot1", np.linspace(20.0, 60.0, 41)),
                   ("spot2", np.linspace(20.0, 60.0, 41))], ("exact",)),
    5: ("quanto", [("s1", np.linspace(20.0, 60.0, 41)),
                   ("s2", np.linspace(20.0, 60.0, 41))], ("exact",)),
}


@pytest.mark.parametrize("figure", sorted(FIGURE_SWEEPS))
def test_figure_columns_equal_grid_sweeps(figure):
    # a figure is a grid sweep of its axes: each price column has the bits of
    # `grid` run with that column's method
    contract, axes, methods = FIGURE_SWEEPS[figure]
    config = ExperimentConfig.from_sources(None, {"contract": contract})
    surface = cli.figure_surface(figure, config)
    assert all(np.array_equal(got, want) for got, (_, want) in zip(surface.axes, axes))
    assert len(surface.values) == len(methods)
    for column, method in zip(surface.values, methods):
        config = ExperimentConfig.from_sources(None, {"contract": contract, "method": method})
        assert np.array_equal(column, cli.grid_surface(config, *axes).values[0]), method


def test_figure_unwritable_path_exit_3(tmp_path, capsys):
    target = tmp_path / "missing" / "fig.csv"
    assert main(["figure", "1", "--out", str(target), "--points", "5"]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_figure1_odd_order_rejected_at_zero(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    assert main(["figure", "1", "--out", str(out), "--order", "5"]) == 2
    assert "even order" in capsys.readouterr().err


def test_figure_points2_on_a_one_axis_figure_exits_2(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    assert main(["figure", "1", "--out", str(out), "--points2", "5"]) == 2
    assert "--points2 does not apply" in capsys.readouterr().err
    assert not out.exists()


def test_figure_config_axis2_on_a_one_axis_figure_exits_2(tmp_path, capsys):
    out, cfg = tmp_path / "fig.csv", tmp_path / "f.json"
    cfg.write_text(json.dumps({"grid": {"axis2": {"points": 5}}}))
    assert main(["figure", "1", "--out", str(out), "--config", str(cfg)]) == 2
    assert "grid.axis2" in capsys.readouterr().err
    assert not out.exists()
    # figure 2 has a second axis: the same file sets its point count
    assert main(["figure", "2", "--out", str(out), "--config", str(cfg), "--points", "3"]) == 0
    assert read_csv(out)[2].shape == (3 * 5, 3)


# ---------------------------------------------------------------------------
# grid command
# ---------------------------------------------------------------------------


def test_grid_single_axis(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["grid", "single", "--axis", "spot", "--start", "20",
                 "--stop", "60", "--points", "5", "--method", "hpm2",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["spot", "price", "exact", "error"]
    assert rows.shape == (5, 4)
    assert np.allclose(rows[:, 1] - rows[:, 2], rows[:, 3], atol=1e-15)


def test_grid_two_axes_basket(tmp_path):
    out = tmp_path / "grid2.csv"
    assert main(["grid", "basket", "--axis", "spot1", "--start", "30",
                 "--stop", "50", "--points", "3", "--axis2", "spot2",
                 "--start2", "30", "--stop2", "50", "--points2", "4",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["spot1", "spot2", "price"]
    assert rows.shape == (12, 3)
    # each row prices the basket at both of its spots
    spec = ExperimentConfig(contract="basket").spec(spots=rows[:, :2])
    exact = basket_put_exact(spec)
    assert np.allclose(rows[:, 2], exact, rtol=1e-11, atol=0.0)


def test_grid_rejects_vector_axis(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(["grid", "basket", "--axis", "weights", "--start", "0",
                 "--stop", "1", "--points", "3", "--out", str(out)]) == 2
    assert "not a scalar parameter" in capsys.readouterr().err


ONE_ASSET = ["--spots", "40", "--weights", "1", "--dividends", "0", "--covariance", "0.04"]


@pytest.mark.parametrize("argv, message", [
    (["single", "--axis", "spot", "--start", "20", "--stop", "60", "--points", "3",
      "--axis2", "spot", "--start2", "20", "--stop2", "60", "--points2", "3"],
     "both axes sweep 'spot'"),
    (["quanto", "--axis", "sigma2", "--start", "0", "--stop", "0.2", "--points", "3"],
     "degenerate quanto volatility"),
    (["single", "--axis", "valuation_time", "--start", "0", "--stop", "1", "--points", "3"],
     "exceeds maturity"),
    (["basket", "--axis", "spot2", "--start", "20", "--stop", "60", "--points", "3",
      *ONE_ASSET], "not a scalar parameter"),
    (["single", "--axis", "spot", "--start", "20", "--stop", "60", "--points", "3",
      "--axis2", "vol", "--start2", "0.1", "--stop2", "0.5"], "--axis2 requires"),
    (["single", "--axis", "spot", "--start", "20", "--stop", "60", "--points", "1"],
     "at least 2 points"),
    (["single", "--axis", "spot", "--start", "20", "--stop", "60", "--points", "3",
      "--axis2", "vol", "--start2", "0.5", "--stop2", "0.1", "--points2", "3"],
     "grid axis 'vol' needs"),
    (["single", "--axis", "spot", "--start", "10", "--stop", "50", "--points", "3",
      "--stop2", "9", "--points2", "4"], "each of them requires --axis2"),
    (["single", "--axis", "spot", "--start", "10", "--stop", "50", "--points", "3",
      "--start2", "1"], "each of them requires --axis2"),
])
def test_grid_invalid_sweep_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "grid.csv"
    assert main(["grid", *argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["exact", "hpm2"])
@pytest.mark.parametrize("argv, payoff", [
    (["quanto", "--s1", "30", "--axis", "sigma1", "--start", "0.1", "--stop", "0.3"],
     40.0 * (40.0 - 30.0)),
    (["basket", "--spots", "30,30", "--axis", "rate", "--start", "0.01", "--stop", "0.05"],
     40.0 - 30.0),
], ids=["quanto-sigma1", "basket-rate"])
def test_grid_at_expiry_sweeps_a_field_the_payoff_omits(tmp_path, argv, payoff, method):
    # every contract has expired, so each row is the payoff, which the swept field leaves out
    out = tmp_path / "grid.csv"
    assert main(["grid", *argv, "--points", "3", "--valuation-time", "0.5",
                 "--method", method, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    expected = {"price": payoff, "exact": payoff, "error": 0.0}
    assert rows.shape == (3, len(header))
    assert (rows[:, 1:] == [expected[name] for name in header[1:]]).all()


# a range per scalar axis; the quanto vols stay apart so that no pair is degenerate
GRID_AXES = {
    "single": {"spot": (20, 60), "strike": (20, 60), "rate": (0.01, 0.1), "vol": (0.1, 0.5),
               "maturity": (0.5, 1.0), "valuation_time": (0.0, 0.5)},
    "basket": {"spot1": (20, 60), "spot2": (20, 60), "rate": (0.01, 0.1), "strike": (20, 60),
               "maturity": (0.5, 1.0), "valuation_time": (0.0, 0.5)},
    "quanto": {"s1": (20, 60), "s2": (20, 60), "sigma1": (0.05, 0.25), "sigma2": (0.0, 0.04),
               "rho": (-1.0, 1.0), "r1": (0.0, 0.1), "r2": (0.0, 0.1), "q": (0.0, 0.05),
               "strike": (20, 60), "maturity": (0.5, 1.0), "valuation_time": (0.0, 0.5)},
}
THREE_ASSETS = {"basket.spots": [40.0, 35.0, 45.0], "basket.weights": [0.2, 0.3, 0.5],
                "basket.dividends": [0.01, 0.0, 0.02],
                "basket.covariance": [[0.04, 0.01, 0.0], [0.01, 0.09, 0.02],
                                      [0.0, 0.02, 0.0625]]}


def per_point_surface(config, axes):
    """The grid priced one spec and one pricer call per point."""
    shape = tuple(len(values) for _, values in axes)
    price, exact = np.empty(shape), np.empty(shape)
    for index in np.ndindex(*shape):
        overrides = {}
        for (name, values), i in zip(axes, index):
            if config.contract == "basket" and name in ("spot1", "spot2"):
                spots = overrides.setdefault("spots", list(config.basket["spots"]))
                spots[int(name[-1]) - 1] = float(values[i])
            else:
                overrides[name] = float(values[i])
        prices = cli._prices(config, (config.method, "exact"), overrides)
        price[index], exact[index] = prices[config.method], prices["exact"]
    names, values = ("price",), (price,)
    if len(axes) == 1 and config.method != "exact":
        names, values = ("price", "exact", "error"), (price, exact, price - exact)
    return PriceSurface(
        axis_names=tuple(name for name, _ in axes), axes=tuple(v for _, v in axes),
        value_names=names, values=values,
        metadata=cli._metadata(config, extra={"method": config.method}),
    )


@pytest.mark.parametrize("contract, method, overrides", [
    *[pytest.param(contract, method, {}, id=f"{contract}-{method}") for contract in GRID_AXES
      for method in PRICERS[contract]],
    pytest.param("quanto", "hpm2", {"order": 3}, id="quanto-hpm2-order3"),
    pytest.param("basket", "hpm2", THREE_ASSETS, id="basket-hpm2-three-assets"),
])
def test_grid_csv_equals_per_point_reference(tmp_path, contract, method, overrides):
    # every scalar axis alone at 5 points, and every pair of axes at 2 x 3, each axis
    # first in about half of its pairs; byte for byte, under either exp dispatch
    config = ExperimentConfig.from_sources(
        None, {"contract": contract, "method": method, **overrides})
    ranges = GRID_AXES[contract]
    names = list(ranges)
    sweeps = [[(name, np.linspace(*ranges[name], 5))] for name in names]
    for i, j in itertools.combinations(range(len(names)), 2):
        a, b = (names[i], names[j]) if (i + j) % 2 else (names[j], names[i])
        sweeps.append([(a, np.linspace(*ranges[a], 2)), (b, np.linspace(*ranges[b], 3))])
    got, want = tmp_path / "grid.csv", tmp_path / "reference.csv"
    for axes in sweeps:
        cli.grid_surface(config, *axes).write_csv(got)
        per_point_surface(config, axes).write_csv(want)
        assert got.read_bytes() == want.read_bytes(), [name for name, _ in axes]


# ---------------------------------------------------------------------------
# validate command
# ---------------------------------------------------------------------------


def test_validate_exit_code_reflects_failures(monkeypatch, capsys):
    fake = [validation.CheckResult("alpha", 0.0, "<= 1", True),
            validation.CheckResult("beta", 2.0, "<= 1", False)]
    monkeypatch.setattr(validation, "run_all", lambda profile: fake)
    assert main(["validate"]) == 1
    out = capsys.readouterr().out
    assert "beta" in out and "FAIL" in out

    fake_ok = [validation.CheckResult("alpha", 0.0, "<= 1", True),
               validation.CheckResult("gamma", 9.9, "recorded", False,
                                      severity="diagnostic")]
    monkeypatch.setattr(validation, "run_all", lambda profile: fake_ok)
    assert main(["validate", "--profile", "strict"]) == 0
    out = capsys.readouterr().out
    assert "WARN" in out   # diagnostics report without failing the run


def test_corrupted_term_constant_fails_residual_check(monkeypatch):
    # mutation probe: a wrong constant in the second series term must be
    # caught by the recursion-residual check, by name; the check reads the
    # coefficients of the polynomial factors, so the probe corrupts the
    # constant of P_2 there
    original = hpm_series._phi_polys

    def corrupted(n, z, k1, k2):
        p, q = original(n, z, k1, k2)
        return (p + 1e-4, q) if n == 2 else (p, q)

    monkeypatch.setattr(hpm_series, "_phi_polys", corrupted)
    results = validation.check_recursion_residuals("default")
    residual = [r for r in results if r.name == "recursion-residuals"][0]
    assert not residual.passed
