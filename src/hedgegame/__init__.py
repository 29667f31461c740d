"""Worst-case super-hedging engine.

Price a target claim under adverse drift/volatility/rate uncertainty by
solving the associated worst-case parabolic equation, build certified smooth
supersolutions by coefficient shaking + inf-convolution + mollification,
derive feedback hedges, and cross-check by adversarial simulation and a
regression Monte Carlo dual.
"""

from .model import (
    FinanceSpec,
    HedgeGameError,
    ModelError,
    ModelSpec,
    ValidationReport,
    make_finance_model,
    make_payoff,
    model_from_config,
    shake_lattice,
    validate_assumptions,
)

__version__ = "0.1.0"

__all__ = [
    "FinanceSpec",
    "HedgeGameError",
    "ModelError",
    "ModelSpec",
    "ValidationReport",
    "make_finance_model",
    "make_payoff",
    "model_from_config",
    "shake_lattice",
    "validate_assumptions",
    "__version__",
]
