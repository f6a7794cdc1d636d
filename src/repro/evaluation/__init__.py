"""Evaluation harness: quality metrics, runners and Table I / Fig. 2 reports."""

from .accuracy import (
    accuracy_drop,
    prediction_agreement,
    top1_accuracy,
    top_k_accuracy,
)
from .error_analysis import TensorErrorReport, tensor_error
from .latency import LatencyStats
from .finetune import (
    FineTuneRecoveryReport,
    distorted_split,
    run_finetune_recovery,
)
from .paper_reference import (
    PAPER_FIG2,
    PAPER_FIG2_MODELS,
    PAPER_TABLE1,
    PaperTable1Row,
    paper_row_for_depth,
)
from .runner import (
    ComparisonResult,
    InferenceResult,
    compare_accurate_vs_approximate,
    run_inference,
)
from .timing_report import (
    Table1Row,
    compare_row_with_paper,
    format_fig2,
    format_table1,
    generate_fig2,
    generate_table1,
)

__all__ = [
    "top1_accuracy",
    "top_k_accuracy",
    "prediction_agreement",
    "accuracy_drop",
    "TensorErrorReport",
    "tensor_error",
    "LatencyStats",
    "FineTuneRecoveryReport",
    "distorted_split",
    "run_finetune_recovery",
    "PAPER_TABLE1",
    "PAPER_FIG2",
    "PAPER_FIG2_MODELS",
    "PaperTable1Row",
    "paper_row_for_depth",
    "InferenceResult",
    "ComparisonResult",
    "run_inference",
    "compare_accurate_vs_approximate",
    "Table1Row",
    "generate_table1",
    "format_table1",
    "compare_row_with_paper",
    "generate_fig2",
    "format_fig2",
]
