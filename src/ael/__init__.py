"""ael: numerical laboratory for a two-player double-auction quoting game.

Computes equilibrium quoting strategies under exchange fee schemes, the
exchange's optimal fee, and validates the closed forms by Monte Carlo.
"""

from .errors import (
    AelError,
    ConfigError,
    DegenerateCase,
    DomainError,
    NoConvergence,
    NoEquilibrium,
    NonConcave,
    NoSignChange,
    OutOfDomain,
    WrongScheme,
)
from .gaussmath import (
    Bracket,
    find_root,
    gauss_legendre,
    maximize_concave,
    norm_cdf,
    norm_pdf,
)
from .model import (
    FeeScheme,
    LinearDemand,
    MarketParams,
    MidQuad,
    NoFee,
    PairStats,
    SpreadQuad,
    Strategy,
    analytic_stats,
    q_rho,
    q_tilde_rho,
    sigma_rho,
)
from .payoff import (
    PayoffContext,
    payoff_deriv,
    payoff_second_deriv,
    payoff_terms,
    penalized_payoff,
)
from .equilibrium import (
    EquilibriumReport,
    SolverConfig,
    best_response,
    existence_bound,
    no_ne_certificate,
    solve_degenerate,
    solve_fixed_point,
    verify_ne,
)
from .exchange import (
    FeeDesignResult,
    RevenuePoint,
    optimal_gamma_degenerate,
    optimal_gamma_numeric,
    revenue,
    revenue_curve,
    y_star,
)
from .simulator import (
    SimConfig,
    SimReport,
    estimate_half_linear_payoff,
    estimate_limit_payoff,
    estimate_stats,
)

__version__ = "0.1.0"
