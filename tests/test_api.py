"""The public surface: the names lqw exports and the parameters of its entry points.

A name or keyword that only the tests would set does not belong here; adding
one back means changing this file on purpose.
"""

import dataclasses
import inspect

import pytest

import lqw
import lqw.cli

EXPORTS = [
    "__version__",
    # core
    "WalkParams", "StandardInit", "GeneralInit", "InitialCondition", "WalkerState",
    "grover_coin", "evolve", "iter_evolution",
    # spectral
    "EigenSystem", "momentum_operator", "eigen_system", "momentum_grid_solution",
    "propagate_fourier",
    # analytics
    "ThetaConstants", "WeakLimitModel", "theta_constants", "f3_matrix",
    "limiting_origin_state", "localization_probability_origin", "peak_velocities",
    "weak_limit_density", "limit_moment", "spread_coefficient",
    # harness
    "Verdict", "ExperimentReport", "localization_series", "distribution_snapshot",
    "density_table", "variance_series", "fit_power_law", "empirical_vs_weak_limit",
    "verification_suite",
    # errors
    "LqwError", "NormalizationError", "DegenerateMomentumError", "DomainError",
    "UnsupportedInitialStateError", "QuadratureError", "DegenerateSeriesError",
    "ComplexParseError",
]

SIGNATURES = {
    "localization_series": ("init", "tau", "t_max"),
    "distribution_snapshot": ("init", "tau", "t_max"),
    "density_table": ("init", "tau", "grid"),
    "variance_series": ("init", "tau", "t_max"),
    "fit_power_law": ("t", "values"),
    "empirical_vs_weak_limit": ("init", "tau", "t_max"),
    "verification_suite": ("init", "tau", "t_max"),
    "limit_moment": ("init", "tau", "r"),
    "WeakLimitModel.continuous_mass": ("self", "hi"),
    "limiting_origin_state": ("init", "tau"),
    "localization_probability_origin": ("init", "tau"),
    "momentum_grid_solution": ("init", "params", "t"),
    "propagate_fourier": ("init", "params", "t"),
}


def test_exports():
    assert lqw.__all__ == EXPORTS


@pytest.mark.parametrize("name", SIGNATURES)
def test_parameters(name):
    owner, _, attr = name.rpartition(".")
    fn = getattr(getattr(lqw, owner) if owner else lqw, attr)
    assert tuple(inspect.signature(fn).parameters) == SIGNATURES[name]


def test_walker_state_members():
    state = lqw.evolve(lqw.StandardInit(1, 0), lqw.WalkParams(1), 2)
    public = {name for name in dir(state) if not name.startswith("_")}
    assert public == {
        "t", "moving", "loop_diff", "amplitudes", "positions", "probabilities"}


def test_weak_limit_model_members():
    # one route per quantity: f(x) is weak_limit_density, P_hat is p_hat
    model = lqw.WeakLimitModel(lqw.StandardInit(1, 0), 1)
    public = {name for name in dir(model) if not name.startswith("_")}
    assert public == {"init", "tau", "omega", "p_hat", "cdf", "continuous_mass"}


def test_cli_config_fields():
    # every default lives in the parser, so the config has none of its own;
    # size is --steps, or --grid for density
    fields = dataclasses.fields(lqw.cli.CliConfig)
    assert [f.name for f in fields] == ["subcommand", "tau", "init", "size", "out", "fmt"]
    assert all(f.default is dataclasses.MISSING for f in fields)
