"""Discrete-event rollup simulator: scenario files in, harm metrics out."""

from l2risk.sim.engine import SimResult, next_l1_block, simulate
from l2risk.sim.scenario import (
    Injection,
    InjectionKind,
    RandomWorkload,
    Scenario,
    ScenarioError,
    SimParams,
    WorkloadAction,
    load_bundled_scenario,
    load_scenario,
    parse_scenario,
    read_scenario,
)

__all__ = [
    "Injection",
    "InjectionKind",
    "RandomWorkload",
    "Scenario",
    "ScenarioError",
    "SimParams",
    "SimResult",
    "WorkloadAction",
    "load_bundled_scenario",
    "load_scenario",
    "next_l1_block",
    "parse_scenario",
    "read_scenario",
    "simulate",
]
