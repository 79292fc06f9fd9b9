"""causalstream: data streams sampled from a causal graph, with controlled
temporal dependence, drift events, interventions, and missingness, plus the
statistical and prequential tooling to verify the generated properties."""

from .analysis import (
    AcfResult,
    LjungBoxResult,
    MmdMatrix,
    acf,
    chi_square_upper_tail,
    ljung_box,
    median_bandwidth,
    mmd2_rbf,
    mmd_heatmap,
)
from .concept import (
    Concept,
    ConceptParams,
    ConceptSnapshot,
    deterministic_label,
    init_concept,
    simulate_concept_samples,
)
from .config import (
    AnalysisOptions,
    ConfigError,
    EvalOptions,
    RunConfig,
    config_to_document,
    load_config,
    parse_config,
)
from .drift import (
    DriftSchedule,
    InterventionPolicy,
    ShiftAction,
    ShiftSpec,
    apply_abrupt,
    apply_recurrent,
    begin_gradual,
    begin_incremental,
    draw_interventions,
    draw_missing,
    gradual_selector,
    incremental_step,
)
from .evaluate import (
    DelayedLabels,
    LinearRegressorLearner,
    LogisticLearner,
    NaiveBayesLearner,
    PrequentialCurve,
    drift_response_metrics,
    make_learner,
    prequential_run,
)
from .generator import (
    GeneratorConfig,
    Instance,
    StreamFrame,
    StreamGenerator,
    build_stream,
    collect,
    spawn_streams,
)
from .graph import CausalGraph, build_dag, topological_order
from .mappers import (
    CATEGORICAL_KINDS,
    CONTINUOUS_KINDS,
    TARGET_FN_KINDS,
    ParentStats,
    RootDistribution,
    TargetFunction,
    draw_target_function,
    eval_target_function,
    fit_continuous_mapper,
    init_categorical_mapper,
    init_random_mlp,
    mapper_from_dict,
    serialize_params,
)
from .presets import describe_preset, list_presets, preset_config
from .stream_io import read_stream_csv, write_sidecar, write_stream_csv
from .temporal import (
    TemporalParams,
    TemporalState,
    ar_noise_step,
    root_value_step,
    simulate_ar_noise,
    simulate_root_values,
)

__version__ = "0.1.0"
