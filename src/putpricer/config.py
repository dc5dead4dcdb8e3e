"""Experiment configuration: defaults, JSON files, and flag overrides.

Precedence is flag > file > default.  JSON parsing is fail-closed: any key
that the schema does not know is an error, so a typo cannot silently price
the wrong contract.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from . import hpm_series
from .transforms import BasketSpec, QuantoSpec, VanillaOptionSpec

CONTRACTS = ("single", "basket", "quanto")
METHODS = ("exact", "hpm1", "hpm2")

# which series methods make sense for which contract
METHODS_BY_CONTRACT = {
    "single": ("exact", "hpm1", "hpm2"),
    "basket": ("exact", "hpm2"),
    "quanto": ("exact", "hpm2"),
}

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
DEFAULT_AXIS = {"name": "", "start": 0.0, "stop": 0.0, "points": 0}


def _reject_unknown(section, data, template):
    unknown = set(data) - set(template)
    if unknown:
        raise ValueError(
            f"unknown config key(s) in {section}: {', '.join(sorted(unknown))}"
        )


@dataclass
class ExperimentConfig:
    contract: str = "single"
    method: str = "exact"
    order: int = 6
    threads: int = 0          # accepted and ignored; kept so older files still load
    single: dict = field(default_factory=lambda: dict(DEFAULT_SINGLE))
    basket: dict = field(default_factory=lambda: copy.deepcopy(DEFAULT_BASKET))
    quanto: dict = field(default_factory=lambda: dict(DEFAULT_QUANTO))
    grid: dict = field(default_factory=dict)

    def validate(self):
        if self.contract not in CONTRACTS:
            raise ValueError(f"contract must be one of {CONTRACTS}, got {self.contract!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.method not in METHODS_BY_CONTRACT[self.contract]:
            raise ValueError(
                f"method {self.method!r} does not apply to contract {self.contract!r}"
            )
        max_order = hpm_series.MAX_ORDER
        if not isinstance(self.order, int) or not 1 <= self.order <= max_order:
            raise ValueError(
                f"order must be an integer in [1, {max_order}], got {self.order!r}"
            )
        if not isinstance(self.threads, int) or self.threads < 0:
            raise ValueError(f"threads must be a nonnegative integer, got {self.threads!r}")
        # constructing the specs runs the full domain validation
        self.vanilla_spec()
        self.basket_spec()
        self.quanto_spec()
        return self

    def vanilla_spec(self, **overrides) -> VanillaOptionSpec:
        return VanillaOptionSpec(**{**self.single, **overrides})

    def basket_spec(self, **overrides) -> BasketSpec:
        params = {**self.basket, **overrides}
        return BasketSpec(
            spots=np.asarray(params["spots"], dtype=float),
            weights=np.asarray(params["weights"], dtype=float),
            dividends=np.asarray(params["dividends"], dtype=float),
            covariance=np.asarray(params["covariance"], dtype=float),
            rate=params["rate"], strike=params["strike"],
            maturity=params["maturity"], valuation_time=params["valuation_time"],
        )

    def quanto_spec(self, **overrides) -> QuantoSpec:
        return QuantoSpec(**{**self.quanto, **overrides})

    def contract_summary(self) -> dict:
        return {
            "single": self.single, "basket": self.basket, "quanto": self.quanto,
        }[self.contract]

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
            template = {
                "contract": None, "method": None, "order": None, "threads": None,
                "single": DEFAULT_SINGLE, "basket": DEFAULT_BASKET,
                "quanto": DEFAULT_QUANTO,
                "grid": {"axis1": DEFAULT_AXIS, "axis2": DEFAULT_AXIS},
            }
            _reject_unknown("top level", data, template)
            for key, value in data.items():
                if key in ("single", "basket", "quanto"):
                    if not isinstance(value, dict):
                        raise ValueError(f"config section {key!r} must be an object")
                    _reject_unknown(key, value, template[key])
                    getattr(cfg, key).update(value)
                elif key == "grid":
                    if not isinstance(value, dict):
                        raise ValueError("config section 'grid' must be an object")
                    _reject_unknown("grid", value, template["grid"])
                    for axis_key, axis_val in value.items():
                        if axis_val is not None:
                            _reject_unknown(f"grid.{axis_key}", axis_val, DEFAULT_AXIS)
                    cfg.grid.update(value)
                else:
                    setattr(cfg, key, value)
        for key, value in (overrides or {}).items():
            if value is None:
                continue
            section, _, name = key.partition(".")
            if name:
                getattr(cfg, section)[name] = value
            else:
                setattr(cfg, key, value)
        return cfg.validate()
