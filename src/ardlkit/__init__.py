"""ardlkit: ARDL bounds-testing toolkit.

A numpy/scipy library for the complete level-relationship workflow on
small macroeconomic samples: CSV ingestion and transforms, OLS with full
inference, ADF and Phillips-Perron unit-root tests, ARDL lag selection,
the bounds cointegration F-test, long-run coefficient recovery, the
error-correction model, and a residual-diagnostics battery — plus
seeded synthetic processes for Monte Carlo validation and a batch
pipeline with JSON/text reports.
"""

from .ardl import (
    ArdlModel,
    ArdlSpec,
    BoundsTestResult,
    EcmResult,
    LongRunCoefficients,
    bounds_decision,
    bounds_test,
    coefficient_pvalues,
    estimate_ardl,
    estimate_ecm,
    estimate_levels,
    long_run,
    select_lags,
)
from .dataio import (
    Dataset,
    Frequency,
    IngestionConfig,
    TimeSeries,
    difference,
    lag,
    load_csv,
    log_transform,
    save_csv,
)
from .diagnostics import (
    DiagnosticsReport,
    StabilityResult,
    breusch_godfrey,
    breusch_pagan,
    cusum,
    cusumsq,
    jarque_bera,
    ramsey_reset,
    recursive_residuals,
    run_battery,
)
from .linreg import (
    DesignMatrix,
    RegressionResult,
    TestStatistic,
    default_bandwidth,
    durbin_watson,
    information_criteria,
    newey_west_lrv,
    ols,
    subset_criteria,
    wald_f_test,
)
from .pipeline import (
    AnalysisReport,
    PipelineConfig,
    load_config,
    parse_config,
    run_pipeline,
)
from .report import render_report, to_payload
from .simgen import (
    Ar1,
    ArdlProcess,
    BreakModel,
    CointegratedPair,
    Dgp,
    RandomWalk,
    derive_seed,
    generate,
)
from .unitroot import (
    Deterministic,
    IntegrationOrder,
    UnitRootConfig,
    UnitRootResult,
    adf_test,
    classify_integration,
    pp_test,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
