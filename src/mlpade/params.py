"""Parameter validation and regime classification for E_{alpha,beta}(-x),
and the argument check shared by the evaluators that take arrays.

The approximation construction splits into five mutually exclusive regimes
inside the complete-monotonicity region {0 < alpha <= 1, beta >= alpha}.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterDomainError

__all__ = ["Regime", "MLParams", "classify", "argument_array"]


class Regime(enum.Enum):
    GENERAL_SUB = "general"           # 0 < alpha < 1, beta > alpha, beta != 1
    BETA_ONE = "beta_one"             # 0 < alpha < 1, beta = 1
    DIAGONAL = "diagonal"             # 0 < alpha = beta < 1
    ALPHA_ONE = "alpha_one"           # alpha = 1, beta > 1
    PURE_EXPONENTIAL = "exponential"  # alpha = beta = 1


@dataclass(frozen=True)
class MLParams:
    alpha: float
    beta: float
    regime: Regime


def classify(alpha: float, beta: float) -> MLParams:
    """Validate (alpha, beta) and assign its unique regime tag.

    Raises ParameterDomainError outside {0 < alpha <= 1, beta >= alpha}.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ParameterDomainError(f"non-finite parameters ({alpha!r}, {beta!r})")
    if not (0.0 < alpha <= 1.0 and beta >= alpha):
        raise ParameterDomainError(
            f"(alpha={alpha!r}, beta={beta!r}) outside the region "
            "0 < alpha <= 1, beta >= alpha"
        )
    if alpha == 1.0:
        regime = Regime.PURE_EXPONENTIAL if beta == 1.0 else Regime.ALPHA_ONE
    elif beta == alpha:
        regime = Regime.DIAGONAL
    elif beta == 1.0:
        regime = Regime.BETA_ONE
    else:
        regime = Regime.GENERAL_SUB
    return MLParams(alpha, beta, regime)


def argument_array(x: np.ndarray, op: str) -> np.ndarray:
    """x as a 1-D float64 array of finite entries >= 0. Raises DomainError
    naming `op` for another shape or for the first entry outside that domain."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError(f"{op} takes a float or a 1-D array, got shape {arr.shape}")
    if not (arr.min(initial=0.0) >= 0.0 and arr.max(initial=0.0) < math.inf):
        bad = arr[~(np.isfinite(arr) & (arr >= 0.0))][0]
        raise DomainError(f"{op} requires finite x >= 0, got {float(bad)!r}")
    return arr
