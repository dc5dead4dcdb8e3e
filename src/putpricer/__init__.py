"""European put pricing: exact closed forms, smoothed perturbation series,
and an independent finite-difference cross-check, for single-asset,
geometric-basket and quanto contracts."""

__version__ = "0.1.0"

from .exact_pricing import (
    basket_put_exact,
    bs_put,
    quanto_put_exact,
    reduced_exact_u,
)
from .hpm_series import (
    MAX_ORDER,
    hpm1_reduced,
    hpm_reduced_sum,
    phi_term,
    price_basket_hpm,
    price_quanto_hpm,
    price_single_hpm1,
    price_single_hpm2,
    single_asset_term,
)
from .pde_oracle import GridSpec, PdeSolution, cn_solve
from .special_functions import erf, erfc, erfcx, normal_cdf
from .surface import PriceSurface
from .transforms import (
    BasketReduction,
    BasketSpec,
    GeneralizedReducedParams,
    QuantoReduction,
    QuantoSpec,
    ReducedContract,
    ReducedCoordinates,
    VanillaOptionSpec,
    reduce_basket,
    reduce_contract,
    reduce_quanto,
    to_dimensionless,
)

__all__ = [
    "MAX_ORDER",
    "BasketReduction",
    "BasketSpec",
    "GeneralizedReducedParams",
    "GridSpec",
    "PdeSolution",
    "PriceSurface",
    "QuantoReduction",
    "QuantoSpec",
    "ReducedContract",
    "ReducedCoordinates",
    "VanillaOptionSpec",
    "basket_put_exact",
    "bs_put",
    "cn_solve",
    "erf",
    "erfc",
    "erfcx",
    "hpm1_reduced",
    "hpm_reduced_sum",
    "normal_cdf",
    "phi_term",
    "price_basket_hpm",
    "price_quanto_hpm",
    "price_single_hpm1",
    "price_single_hpm2",
    "quanto_put_exact",
    "reduce_basket",
    "reduce_contract",
    "reduce_quanto",
    "reduced_exact_u",
    "single_asset_term",
    "to_dimensionless",
]
