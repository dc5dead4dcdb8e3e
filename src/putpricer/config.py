"""Experiment configuration: defaults, JSON files, and flag overrides.

Precedence is flag > file > default.  JSON parsing is fail-closed: any key
that the schema does not know is an error, so a typo cannot silently price
the wrong contract.  Each contract's section holds the fields of its spec
class in `SPECS`, and `ExperimentConfig.spec` is the one place that builds
the configured contract's spec; `PRICERS` is the one place that says which
methods price it.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

from . import exact_pricing, hpm_series
from .transforms import BasketSpec, QuantoSpec, VanillaOptionSpec

# the spec class each contract builds from its config section
SPECS = {"single": VanillaOptionSpec, "basket": BasketSpec, "quanto": QuantoSpec}

# contract: {method: pricer(spec, order)}, the methods that apply to it; each
# pricer looks its name up when called, so a wrapper installed on that name
# (a tracer) runs
PRICERS = {
    "single": {
        "exact": lambda spec, order: exact_pricing.bs_put(spec),
        "hpm1": lambda spec, order: hpm_series.price_single_hpm1(spec),
        "hpm2": lambda spec, order: hpm_series.price_single_hpm2(spec, order),
    },
    "basket": {
        "exact": lambda spec, order: exact_pricing.basket_put_exact(spec),
        "hpm2": lambda spec, order: hpm_series.price_basket_hpm(spec, order),
    },
    "quanto": {
        "exact": lambda spec, order: exact_pricing.quanto_put_exact(spec),
        "hpm2": lambda spec, order: hpm_series.price_quanto_hpm(spec, order),
    },
}

CONTRACTS = tuple(SPECS)
METHODS = tuple(dict.fromkeys(method for pricers in PRICERS.values() for method in pricers))

DEFAULT_SINGLE = {
    "spot": 40.0, "strike": 40.0, "rate": 0.05, "vol": 0.324336,
    "maturity": 0.5, "valuation_time": 0.0,
}
DEFAULT_BASKET = {
    "spots": [40.0, 40.0], "weights": [0.5, 0.5], "dividends": [0.0, 0.0],
    "covariance": [[0.01, 0.0], [0.0, 0.09]],
    "rate": 0.05, "strike": 40.0, "maturity": 0.5, "valuation_time": 0.0,
}
DEFAULT_QUANTO = {
    "s1": 40.0, "s2": 40.0, "sigma1": 0.1, "sigma2": 0.3, "rho": 1.0,
    "r1": 0.03, "r2": 0.05, "q": 0.0,
    "strike": 40.0, "maturity": 0.5, "valuation_time": 0.0,
}
DEFAULT_AXIS = {"start": 0.0, "stop": 0.0, "points": 0}

# every key a config file may hold; the contract sections double as the CLI's
# flag schema, so a field added to a DEFAULT_* dict becomes a flag as well
SCHEMA = {
    "contract": None, "method": None, "order": None,
    "single": DEFAULT_SINGLE, "basket": DEFAULT_BASKET, "quanto": DEFAULT_QUANTO,
    "grid": {"axis1": DEFAULT_AXIS, "axis2": DEFAULT_AXIS},
}


def _check_section(section, data, template):
    if not isinstance(data, dict):
        raise ValueError(f"config section {section!r} must be an object")
    unknown = set(data) - set(template)
    if unknown:
        raise ValueError(
            f"unknown config key(s) in {section}: {', '.join(sorted(unknown))}"
        )


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value):
    return isinstance(value, float) or _is_integer(value)


@dataclass
class ExperimentConfig:
    contract: str = "single"
    method: str = "exact"
    order: int = 6
    single: dict = field(default_factory=lambda: dict(DEFAULT_SINGLE))
    basket: dict = field(default_factory=lambda: copy.deepcopy(DEFAULT_BASKET))
    quanto: dict = field(default_factory=lambda: dict(DEFAULT_QUANTO))
    grid: dict = field(default_factory=dict)

    def validate(self):
        if self.contract not in CONTRACTS:
            raise ValueError(f"contract must be one of {CONTRACTS}, got {self.contract!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.method not in PRICERS[self.contract]:
            raise ValueError(
                f"method {self.method!r} does not apply to contract {self.contract!r}"
            )
        hpm_series._check_order(self.order)
        for key, axis in self.grid.items():
            for name, value in (axis or {}).items():
                if name == "points" and not (_is_integer(value) and value >= 2):
                    raise ValueError(f"grid.{key}.points must be an integer >= 2, got {value!r}")
                if name != "points" and not (_is_real(value) and math.isfinite(value)):
                    raise ValueError(f"grid.{key}.{name} must be a finite number, got {value!r}")
        # constructing the specs runs the full domain validation
        for contract, spec_class in SPECS.items():
            spec_class(**getattr(self, contract))
        return self

    def spec(self, **overrides):
        """The configured contract's spec: its section's fields, overridden by `overrides`."""
        return SPECS[self.contract](**{**self.contract_summary(), **overrides})

    def contract_summary(self) -> dict:
        return getattr(self, self.contract)

    @classmethod
    def from_sources(cls, config_path=None, overrides=None) -> "ExperimentConfig":
        """Merge defaults <- JSON file <- flat override dict, fail-closed."""
        cfg = cls()
        if config_path is not None:
            with open(config_path, "r", encoding="utf-8") as handle:
                try:
                    data = json.load(handle)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"config {config_path}: invalid JSON ({exc})")
            if not isinstance(data, dict):
                raise ValueError(f"config {config_path}: top level must be an object")
            _check_section("top level", data, SCHEMA)
            for key, value in data.items():
                if SCHEMA[key] is None:
                    setattr(cfg, key, value)
                    continue
                _check_section(key, value, SCHEMA[key])
                if key == "grid":
                    for axis_key, axis in value.items():
                        if axis is not None:
                            _check_section(f"grid.{axis_key}", axis, DEFAULT_AXIS)
                getattr(cfg, key).update(value)
        for key, value in (overrides or {}).items():
            if value is None:
                continue
            section, _, name = key.partition(".")
            if name:
                getattr(cfg, section)[name] = value
            else:
                setattr(cfg, key, value)
        return cfg.validate()
