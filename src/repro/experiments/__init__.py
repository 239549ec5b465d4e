"""Experiment orchestration: harness, named scenarios and figure regeneration."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".ascii_plot": ("ascii_chart", "plot_figure"),
        ".campaign": (
            "CAMPAIGN_GRIDS", "CampaignPoint", "CampaignResult", "CampaignSpec", "ResultStore",
            "ecn_aqm_fairness_campaign", "multiflow_fairness_campaign", "paper_cc_rate_campaign",
            "point_key", "run_campaign",
        ),
        ".chaos": ("ChaosSpec",),
        ".fabric": (
            "FabricConfig", "LeaseManager", "MergeReport", "backoff_delay", "drive_campaign",
            "merge_stores", "run_campaign_fabric",
        ),
        ".figures": (
            "FigureData", "fig2a_cubic", "fig2b_olia", "fig2c_fine", "figure_with_algorithm",
        ),
        ".harness": (
            "ExperimentConfig", "ExperimentResult", "WorkerPool", "paper_experiment",
            "run_experiment", "run_scenarios_parallel",
        ),
        ".multiflow": (
            "FlowResult", "FlowSpec", "MultiFlowConfig", "MultiFlowResult", "run_multiflow",
        ),
        ".scenarios": (
            "COMPETITION_SCENARIOS", "DYNAMICS_SCENARIOS", "aqm_vs_droptail",
            "capacity_step_tracking", "cc_comparison", "cross_traffic_perturbation",
            "ecn_mptcp_fairness", "handover_subflow_migration", "link_flap_failover",
            "mptcp_vs_tcp_shared_bottleneck", "olia_default_path_sweep", "queue_size_sweep",
            "scheduler_comparison", "summarize_results", "two_mptcp_competition",
        ),
    },
)
