"""Client-side differentially private prompt sanitization.

A prompt is rewritten m times under a temperature-aligned exponential
mechanism, consensus keywords across the group are released and suppressed,
the lowest-perplexity rewrite anchors a one-shot template, and the model
regenerates the final question at temperature 0. A privacy ledger tracks the
composed budget of the whole run.

Only the names the README's library example uses are re-exported here;
everything else is imported from its submodule (``promptsan.keywords``,
``promptsan.evaluation``, ...).
"""

from .client import MockChatModel
from .mechanisms import ClipBounds, epsilon_per_token, schedule_total, temperature_for_epsilon
from .pipeline import PipelineConfig, budget_report, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "ClipBounds",
    "MockChatModel",
    "PipelineConfig",
    "budget_report",
    "epsilon_per_token",
    "run_pipeline",
    "schedule_total",
    "temperature_for_epsilon",
]
