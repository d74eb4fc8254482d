"""Optimistic-robust (bimodal) omnichannel inventory positioning toolkit."""

__version__ = "0.1.0"

from .instance import (  # noqa: F401
    BusinessRules,
    EconParams,
    Instance,
    InstanceError,
    InventoryState,
    Network,
    build_instance,
    load_instance,
    save_instance,
    validate_instance,
)
from .uncertainty import (  # noqa: F401
    DemandMeans,
    DemandScenario,
    UncertaintySet,
    poisson_quantile,
    quantile_bounds_from_means,
    sample_scenarios,
)
from .formulations import (  # noqa: F401
    Allocation,
    BioConfig,
    FulfillmentPlan,
    ScenarioBatch,
    basestock_policy,
    build_fulfillment_model,
    build_master,
    build_pwl_baseline,
    build_saa_model,
    build_subproblem,
    evaluate_allocation,
    evaluate_profit,
    evaluate_profits,
    extract_worst_scenario,
    pwl_allocation,
)
from .ccg import (  # noqa: F401
    CcgOptions,
    SolveReport,
    alternating_heuristic_subproblem,
    solve_two_stage,
)
from .tuning import (  # noqa: F401
    ScoringObjective,
    closed_form_single_location,
    score_allocation,
    solve_saa,
    superpose,
    tune_lambda,
    verify_superposition,
)
from .simulate import (  # noqa: F401
    KpiReport,
    PolicySpec,
    batch_evaluate,
    fulfill_order_stream,
    run_rolling_horizon,
    spread_down,
)
