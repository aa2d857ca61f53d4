"""Experiment and figure harness.

``reproduce_all_figures`` rebuilds every figure of the paper;
``ALL_EXPERIMENTS`` maps experiment ids (E1-E11) to their ``run`` functions;
``run_experiment`` dispatches by id.  Each experiment module also exposes a
``headline`` function producing the aggregate numbers quoted in
``EXPERIMENTS.md`` and a ``main`` entry point that prints the full table.
"""

from repro.experiments import (
    e1_module_privacy,
    e2_adversary,
    e3_structural,
    e4_tradeoff,
    e5_keyword,
    e6_storage,
    e7_index,
    e8_ranking,
    e9_sharding,
    e10_transport,
    e11_federation,
)
from repro.experiments.figures import (
    FIG5_QUERY,
    FigureArtifact,
    fig1_specification,
    fig2_execution_view,
    fig3_hierarchy,
    fig4_execution,
    fig5_keyword_answer,
    figure_checks,
    reproduce_all_figures,
)
from repro.experiments.reporting import (
    ResultTable,
    format_table,
    print_table,
    select_columns,
    summarize_numeric,
    table_columns,
)
from repro.experiments.workloads import (
    CorpusConfig,
    build_corpus,
    build_repository,
    default_access_policy,
    keyword_workload,
    random_relations,
    random_structural_targets,
    scaled_structure,
)

#: All experiments keyed by their id in DESIGN.md / EXPERIMENTS.md.
ALL_EXPERIMENTS = {
    "E1": e1_module_privacy.run,
    "E2": e2_adversary.run,
    "E3": e3_structural.run,
    "E4": e4_tradeoff.run,
    "E5": e5_keyword.run,
    "E6": e6_storage.run,
    "E7": e7_index.run,
    "E8": e8_ranking.run,
    "E9": e9_sharding.run,
    "E10": e10_transport.run,
    "E11": e11_federation.run,
}

#: Headline aggregators keyed by experiment id.
ALL_HEADLINES = {
    "E1": e1_module_privacy.headline,
    "E2": e2_adversary.headline,
    "E3": e3_structural.headline,
    "E4": e4_tradeoff.headline,
    "E5": e5_keyword.headline,
    "E6": e6_storage.headline,
    "E7": e7_index.headline,
    "E8": e8_ranking.headline,
    "E9": e9_sharding.headline,
    "E10": e10_transport.headline,
    "E11": e11_federation.headline,
}


def run_experiment(experiment_id: str) -> ResultTable:
    """Run one experiment by id (``"E1"`` ... ``"E11"``)."""
    try:
        runner = ALL_EXPERIMENTS[experiment_id.upper()]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; expected one of "
            f"{sorted(ALL_EXPERIMENTS)}"
        ) from None
    return runner()


__all__ = [
    "ALL_EXPERIMENTS",
    "ALL_HEADLINES",
    "CorpusConfig",
    "FIG5_QUERY",
    "FigureArtifact",
    "ResultTable",
    "build_corpus",
    "build_repository",
    "default_access_policy",
    "fig1_specification",
    "fig2_execution_view",
    "fig3_hierarchy",
    "fig4_execution",
    "fig5_keyword_answer",
    "figure_checks",
    "format_table",
    "keyword_workload",
    "print_table",
    "random_relations",
    "random_structural_targets",
    "reproduce_all_figures",
    "run_experiment",
    "scaled_structure",
    "select_columns",
    "summarize_numeric",
    "table_columns",
]
