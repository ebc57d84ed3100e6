"""Experiment harness shared by the benchmark suite and EXPERIMENTS.md.

Implements the paper's evaluation methodology (§4): per-kernel design
spaces, accuracy of FlexCL and the SDAccel-style estimator against
System Run, exploration-time accounting, and the DSE quality studies.
"""

from repro.evaluation.harness import (
    DesignRecord,
    KernelAccuracy,
    estimate_synthesis_time,
    evaluate_accuracy,
    kernel_analyzer,
    make_analyzer,
    sample_designs,
)
from repro.evaluation.dse_study import DSEStudy, run_dse_study
from repro.evaluation.suite import (
    SuitePrediction,
    SuiteResult,
    default_suite_workloads,
    run_suite,
)

__all__ = [
    "DSEStudy",
    "DesignRecord",
    "KernelAccuracy",
    "SuitePrediction",
    "SuiteResult",
    "default_suite_workloads",
    "estimate_synthesis_time",
    "evaluate_accuracy",
    "kernel_analyzer",
    "make_analyzer",
    "run_dse_study",
    "run_suite",
    "sample_designs",
]
