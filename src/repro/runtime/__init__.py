"""Simulated parallel runtime: task scheduler and preprocessing pipeline."""

from repro.runtime.pipeline import (
    PIPELINE_MODES,
    PipelineResult,
    SubdomainWork,
    run_preprocessing_pipeline,
)
from repro.runtime.scheduler import (
    Schedule,
    ScheduledTask,
    Task,
    host_worker_count,
    schedule_tasks,
)

__all__ = [
    "Task",
    "ScheduledTask",
    "Schedule",
    "schedule_tasks",
    "host_worker_count",
    "SubdomainWork",
    "PipelineResult",
    "run_preprocessing_pipeline",
    "PIPELINE_MODES",
]
