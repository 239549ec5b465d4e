"""Measurement and post-processing: sampling, convergence, statistics, reports."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".convergence": (
            "ConvergenceReport", "analyze_convergence", "stability_coefficient",
            "sustained_time_to_fraction",
        ),
        ".dynamics": (
            "DynamicsReport", "EpochMetrics", "analyze_dynamics", "capacity_at",
            "capacity_tracking_error", "failover_gap", "reconvergence_time",
        ),
        ".fairness": (
            "FairnessReport", "analyze_fairness", "bottleneck_share", "jains_index",
            "mptcp_vs_tcp_ratio", "settle_time",
        ),
        ".fct": (
            "FctRecord", "FctReport", "fct_percentiles", "page_load_times", "percentile",
            "size_decile_breakdown",
        ),
        ".flowstats": ("ConnectionStats", "SubflowStats", "connection_stats", "subflow_stats"),
        ".report": (
            "comparison_row", "format_comparison", "format_table", "print_section",
            "sanitize_metrics",
        ),
        ".sampling": (
            "TimeSeries", "per_tag_timeseries", "throughput_timeseries", "total_timeseries",
        ),
        ".signalplane": ("SignalPlaneReport", "modeled_signal_plane", "signal_plane_report"),
        ".validation": (
            "BackendComparison", "FctComparison", "ModelErrorStats", "ModelPrediction",
            "PointValidation", "ValidationReport", "compare_backend_rates", "compare_fct_reports",
            "compare_multiflow_backends", "compare_workload_backends", "rank_agreement",
            "relative_error", "validate_against_models", "validate_experiment",
            "validate_multiflow",
        ),
    },
)
