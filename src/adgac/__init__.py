"""Interactive classification with noisy label and pairwise-comparison oracles."""

from .oracles import (ComparisonNoiseSpec, GroundTruth, LabelNoiseSpec, Oracle,
                      QueryCounters, ScenarioSpec, calibrate_band, gaussian_scenario,
                      sample_unlabeled, score, uniform_scenario)
from .core import (DEFAULT_CONSTANTS, AdgacResult, BudgetExceededError, RankedGroups,
                   TunableConstants, adgac, batch_size, group_binary_search,
                   noisy_quicksort)
from .hypotheses import EmptyVersionSpaceError, ExplicitClass, ThresholdClass, VersionSpace
from .a2 import RunParams, RunResult, run_a2_adgac, run_baseline_a2, vc_bound_u
from .margin import (EmptyBandError, HingeFit, MarginParams, MarginRunResult,
                     MarginSchedule, band_membership, fit_initial_direction,
                     hinge_loss_batch, hinge_subgradient,
                     minimize_hinge, run_margin_adgac)
from .minimax import (GhatConstruction, LemmaStack, ScoreDistribution,
                      best_threshold_error, comparison_error_of, construct_ghat,
                      equality_instance, lemma_min_f, make_lemma_instance)
from .bench import (ExperimentConfig, TrialReport, emit_report, measure_error,
                    parse_report_csv, passive_erm, run_trials)

__all__ = [name for name in dir() if not name.startswith("_")]
