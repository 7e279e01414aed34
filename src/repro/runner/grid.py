"""Declarative parameter grids and sweep specifications.

A sweep is described by a :class:`SweepSpec`: an experiment id, a
:class:`ParamGrid` (or explicit list of configurations), a replication
count and a base seed.  ``SweepSpec.tasks()`` expands the spec into the
flat list of :class:`SweepTask` shards the executor distributes over
workers.

Determinism contract
--------------------
Each shard's seed is derived as::

    derive_seed(base_seed, "sweep", experiment_id, canonical_config(config), replication)

``canonical_config`` is a sorted-key JSON rendering of the configuration,
so the seed depends only on the *content* of the configuration — not on
its position in the grid, the worker that executes it, or the order in
which shards complete.  Reordering grid axes, appending new
configurations, or changing ``--jobs`` therefore never perturbs the
random draws of existing shards (the same stream-stability property that
:class:`repro.utils.rng.SeedSequenceFactory` gives in-process components).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.experiments.common import Scale
from repro.utils.rng import derive_seed

__all__ = [
    "ParamGrid",
    "SweepSpec",
    "SweepTask",
    "SCENARIOS",
    "build_spec",
    "canonical_config",
    "scenario",
]


def _jsonable(value: object) -> object:
    """Coerce ``value`` to a JSON-serialisable equivalent (tuples, numpy scalars...)."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return _jsonable(value.item())
    if isinstance(value, Scale):
        return value.value
    return str(value)


def _canonical_value(value: object) -> object:
    """Like :func:`_jsonable`, but with numeric identity normalised.

    Non-bool ints become floats so ``{"threshold": 50}`` (CLI-parsed) and
    ``{"threshold": 50.0}`` (scenario bundle) are the *same* configuration
    — identical seeds, identical cache artifacts.
    """
    value = _jsonable(value)
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return float(value)
    if isinstance(value, list):
        return [_canonical_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _canonical_value(item) for key, item in value.items()}
    return value


def canonical_config(config: Mapping[str, object]) -> str:
    """Render ``config`` as canonical JSON (sorted keys, compact separators).

    This string is the identity of a configuration: it feeds both the
    per-shard seed derivation and the artifact-cache key, so two configs
    with equal content always share seeds and cached results.  Numeric
    values are normalised to float first, so ``50`` and ``50.0`` denote
    the same configuration.
    """
    return json.dumps(
        _canonical_value(dict(config)), sort_keys=True, separators=(",", ":")
    )


@dataclass(frozen=True)
class SweepTask:
    """One executable shard of a sweep: a configuration × replication pair.

    Attributes
    ----------
    experiment_id:
        Registry id of the (sweepable) experiment, e.g. ``"fig11"``.
    config:
        Parameter overrides for this grid point (may be empty for plain
        multi-replication runs of a registered experiment).
    config_index:
        Position of the configuration in the expanded grid — used only to
        order results deterministically, never for seed derivation.
    replication:
        Replication index in ``range(replications)``.
    seed:
        The shard's derived base seed (see the module docstring).
    scale:
        Reproduction scale preset passed to the runner.
    """

    experiment_id: str
    config: Mapping[str, object]
    config_index: int
    replication: int
    seed: int
    scale: str = Scale.DEFAULT.value

    def config_key(self) -> str:
        """Canonical JSON identity of this shard's configuration."""
        return canonical_config(self.config)

    def to_payload(self) -> Dict[str, object]:
        """Render the task as a plain JSON-safe dict (picklable for workers)."""
        return {
            "experiment_id": self.experiment_id,
            "config": dict(self.config),
            "config_index": self.config_index,
            "replication": self.replication,
            "seed": self.seed,
            "scale": str(self.scale),
        }

    @staticmethod
    def from_payload(payload: Mapping[str, object]) -> "SweepTask":
        """Inverse of :meth:`to_payload`."""
        return SweepTask(
            experiment_id=str(payload["experiment_id"]),
            config=dict(payload["config"]),  # type: ignore[arg-type]
            config_index=int(payload["config_index"]),  # type: ignore[arg-type]
            replication=int(payload["replication"]),  # type: ignore[arg-type]
            seed=int(payload["seed"]),  # type: ignore[arg-type]
            scale=str(payload["scale"]),
        )


class ParamGrid:
    """A cartesian product of named parameter axes.

    Axes expand in *insertion order* with the last axis varying fastest,
    so the expansion order is deterministic and documentation-friendly.

    Examples
    --------
    >>> grid = ParamGrid({"a": [1, 2], "b": ["x"]})
    >>> grid.points()
    [{'a': 1, 'b': 'x'}, {'a': 2, 'b': 'x'}]
    >>> len(grid)
    2
    """

    def __init__(self, axes: Optional[Mapping[str, Sequence[object]]] = None) -> None:
        self._axes: Dict[str, List[object]] = {}
        for name, values in (axes or {}).items():
            self.add_axis(name, values)

    def add_axis(self, name: str, values: Iterable[object]) -> "ParamGrid":
        """Add (or replace) an axis; returns ``self`` for chaining."""
        values = list(values)
        if not values:
            raise ValueError(f"axis {name!r} must have at least one value")
        self._axes[str(name)] = values
        return self

    @property
    def axes(self) -> Dict[str, List[object]]:
        """A copy of the axis mapping."""
        return {name: list(values) for name, values in self._axes.items()}

    def points(self) -> List[Dict[str, object]]:
        """Expand the cartesian product into a list of configuration dicts."""
        if not self._axes:
            return [{}]
        names = list(self._axes)
        combos = itertools.product(*(self._axes[name] for name in names))
        return [dict(zip(names, combo)) for combo in combos]

    def __len__(self) -> int:
        total = 1
        for values in self._axes.values():
            total *= len(values)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{name}={values!r}" for name, values in self._axes.items())
        return f"ParamGrid({inner})"

    @staticmethod
    def _coerce(text: str) -> object:
        """Parse a CLI axis value: int, then float, then bare string."""
        for parser in (int, float):
            try:
                return parser(text)
            except ValueError:
                continue
        return text

    @classmethod
    def parse(cls, specs: Iterable[str]) -> "ParamGrid":
        """Build a grid from CLI-style ``name=v1,v2,...`` axis specs.

        >>> ParamGrid.parse(["rate=0.1,0.2", "threshold=50"]).points()
        [{'rate': 0.1, 'threshold': 50}, {'rate': 0.2, 'threshold': 50}]
        """
        grid = cls()
        for spec in specs:
            if "=" not in spec:
                raise ValueError(f"parameter spec {spec!r} must look like name=v1,v2")
            name, _, values = spec.partition("=")
            name = name.strip()
            parsed = [cls._coerce(part.strip()) for part in values.split(",") if part.strip()]
            if not name or not parsed:
                raise ValueError(f"parameter spec {spec!r} must look like name=v1,v2")
            grid.add_axis(name, parsed)
        return grid


@dataclass
class SweepSpec:
    """A declarative sweep: experiment × configurations × replications.

    Attributes
    ----------
    experiment_id:
        Registry id of the experiment to sweep.
    grid:
        A :class:`ParamGrid` or an explicit list of configuration dicts.
        An empty grid yields the single empty configuration ``{}`` (a
        plain multi-replication run of the registered experiment).
    replications:
        Number of independent replications per configuration.
    base_seed:
        Seed at the root of the per-shard derivation chain.
    scale:
        Reproduction scale preset forwarded to every shard.
    name:
        Optional human-readable sweep name (scenario bundles set it).
    """

    experiment_id: str
    grid: object = field(default_factory=ParamGrid)
    replications: int = 1
    base_seed: int = 0
    scale: str = Scale.DEFAULT.value
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        self.scale = Scale(self.scale).value

    def configs(self) -> List[Dict[str, object]]:
        """The expanded list of configuration dicts, in deterministic order.

        Each configuration is normalized through the experiment registry
        (knobs the point runner ignores for that configuration are dropped,
        e.g. fig10's ``wealth_threshold`` under the fixed policy), and
        configurations whose normalized content coincides are deduplicated
        keeping the first occurrence — two grid points that would simulate
        identically never run (or cache, or report) twice.
        """
        from repro.experiments.registry import normalize_sweep_config

        if isinstance(self.grid, ParamGrid):
            raw = self.grid.points()
        else:
            raw = [dict(config) for config in self.grid]  # type: ignore[union-attr]
        configs: List[Dict[str, object]] = []
        seen = set()
        for config in raw:
            config = normalize_sweep_config(self.experiment_id, config)
            key = canonical_config(config)
            if key in seen:
                continue
            seen.add(key)
            configs.append(config)
        return configs

    def tasks(self) -> List[SweepTask]:
        """Expand into the flat ``(config × replication)`` shard list.

        Shards are ordered by ``(config_index, replication)``; their seeds
        follow the determinism contract in the module docstring.
        """
        tasks: List[SweepTask] = []
        for config_index, config in enumerate(self.configs()):
            key = canonical_config(config)
            for replication in range(self.replications):
                tasks.append(
                    SweepTask(
                        experiment_id=self.experiment_id,
                        config=config,
                        config_index=config_index,
                        replication=replication,
                        seed=derive_seed(
                            self.base_seed, "sweep", self.experiment_id, key, replication
                        ),
                        scale=self.scale,
                    )
                )
        return tasks

    def describe(self) -> str:
        """One-line human summary, e.g. ``fig11: 4 configs x 4 reps = 16 shards``."""
        configs = len(self.configs())
        shards = configs * self.replications
        label = self.name or self.experiment_id
        return (
            f"{label}: {configs} config{'s' if configs != 1 else ''} x "
            f"{self.replications} rep{'s' if self.replications != 1 else ''} "
            f"= {shards} shard{'s' if shards != 1 else ''} "
            f"(scale={self.scale}, base_seed={self.base_seed})"
        )


def _fig3_wealth_grid() -> SweepSpec:
    return SweepSpec(
        experiment_id="fig3",
        grid=ParamGrid({"num_peers": [50, 100], "average_wealth": [5.0, 20.0, 60.0, 100.0]}),
        name="fig3-wealth-grid",
    )


def _fig9_taxation_configs() -> List[Dict[str, object]]:
    # One explicit no-tax baseline ahead of the rate x threshold product:
    # crossing tax_rate=0 with the thresholds would duplicate the same
    # NoTax simulation under configs that differ only in an ignored knob.
    configs: List[Dict[str, object]] = [{"tax_rate": 0.0}]
    configs += ParamGrid({"tax_rate": [0.1, 0.2], "tax_threshold": [50.0, 80.0]}).points()
    return configs


def _fig9_taxation_grid() -> SweepSpec:
    return SweepSpec(
        experiment_id="fig9", grid=_fig9_taxation_configs(), name="fig9-taxation-grid"
    )


def _fig11_churn_grid() -> SweepSpec:
    return SweepSpec(
        experiment_id="fig11",
        grid=ParamGrid({"mean_lifespan": [500.0, 1000.0], "rate_factor": [1.0, 2.0]}),
        name="fig11-churn-grid",
    )


# -- streaming smoke bundles ----------------------------------------------------
#
# Tiny two-shard streaming-simulator grids (two populations each); CI's
# determinism job sweeps them to pin the cache-key contract of the
# streaming path across worker counts.


def _fig5_6_streaming_smoke() -> SweepSpec:
    return SweepSpec(
        experiment_id="fig5_6",
        grid=ParamGrid(
            {
                "simulator": ["streaming"],
                "num_peers": [36, 48],
                "horizon": [150.0],
            }
        ),
        scale=Scale.SMOKE.value,
        name="fig5_6-streaming-smoke",
    )


def _fig11_streaming_smoke() -> SweepSpec:
    return SweepSpec(
        experiment_id="fig11",
        grid=ParamGrid(
            {
                "simulator": ["streaming"],
                "mean_lifespan": [80.0],
                "num_peers": [36, 48],
                "horizon": [150.0],
            }
        ),
        scale=Scale.SMOKE.value,
        name="fig11-streaming-smoke",
    )


# -- paper-scale bundles --------------------------------------------------------
#
# One named bundle per figure at the paper's Sec. III/VI populations and
# horizons (500-1000 peers, tens of thousands of simulated seconds).  These
# are deliberately heavyweight: drive them through ``run_sweep`` with a
# cache directory and ``--jobs`` so shards parallelise and interrupted runs
# resume.  Every bundle pins ``scale="paper"``; replications/seed stay
# overridable through :func:`scenario`.


def _fig1_paper() -> SweepSpec:
    # The paper's two cases — (c=200, Poisson-seller prices) condensed and
    # (c=12, uniform prices) healthy — crossed into the full 2x2 ablation so
    # the sweep separates the wealth lever from the pricing lever.
    return SweepSpec(
        experiment_id="fig1",
        grid=ParamGrid(
            {"initial_credits": [12.0, 200.0], "pricing_model": ["uniform", "poisson-seller"]}
        ),
        scale=Scale.PAPER.value,
        name="fig1-paper",
    )


def _fig2_paper() -> SweepSpec:
    # The paper's three (M, N) combinations, one shard each.
    configs = [
        {"total_credits": 2000, "num_peers": 100},
        {"total_credits": 25000, "num_peers": 50},
        {"total_credits": 50000, "num_peers": 50},
    ]
    return SweepSpec(
        experiment_id="fig2", grid=configs, scale=Scale.PAPER.value, name="fig2-paper"
    )


def _fig3_paper() -> SweepSpec:
    return SweepSpec(
        experiment_id="fig3",
        grid=ParamGrid(
            {
                "num_peers": [50, 100, 200, 400],
                "average_wealth": [1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0],
            }
        ),
        scale=Scale.PAPER.value,
        name="fig3-paper",
    )


def _fig4_paper() -> SweepSpec:
    return SweepSpec(
        experiment_id="fig4",
        grid=ParamGrid(
            {"average_wealth": [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0]}
        ),
        scale=Scale.PAPER.value,
        name="fig4-paper",
    )


def _fig5_6_paper() -> SweepSpec:
    # Convergence-horizon x population sweep around the paper's 1000-peer,
    # 40000 s run: shorter horizons expose the early-stage transient.
    return SweepSpec(
        experiment_id="fig5_6",
        grid=ParamGrid({"num_peers": [500, 1000], "horizon": [10000.0, 20000.0, 40000.0]}),
        scale=Scale.PAPER.value,
        name="fig5_6-paper",
    )


def _fig7_paper() -> SweepSpec:
    return SweepSpec(
        experiment_id="fig7",
        grid=ParamGrid({"average_wealth": [50.0, 100.0, 200.0]}),
        scale=Scale.PAPER.value,
        name="fig7-paper",
    )


def _fig8_paper() -> SweepSpec:
    return SweepSpec(
        experiment_id="fig8",
        grid=ParamGrid({"average_wealth": [50.0, 100.0, 200.0]}),
        scale=Scale.PAPER.value,
        name="fig8-paper",
    )


def _fig9_paper() -> SweepSpec:
    return SweepSpec(
        experiment_id="fig9",
        grid=_fig9_taxation_configs(),
        scale=Scale.PAPER.value,
        name="fig9-paper",
    )


def _fig10_paper() -> SweepSpec:
    # Spending-policy grid: the static baseline plus the dynamic adjustment
    # at thresholds below/at the paper's average wealth (c = 100).
    configs: List[Dict[str, object]] = [{"spending_policy": "fixed"}]
    configs += ParamGrid(
        {"spending_policy": ["dynamic"], "wealth_threshold": [50.0, 100.0]}
    ).points()
    return SweepSpec(
        experiment_id="fig10", grid=configs, scale=Scale.PAPER.value, name="fig10-paper"
    )


def _fig11_paper() -> SweepSpec:
    # `mean_lifespan=None` is the static-overlay baseline point (an empty
    # config would instead replicate the whole three-sub-figure experiment).
    configs: List[Dict[str, object]] = [{"mean_lifespan": None}]
    configs += ParamGrid(
        {"mean_lifespan": [500.0, 1000.0, 2000.0], "rate_factor": [1.0, 2.0, 4.0]}
    ).points()
    return SweepSpec(
        experiment_id="fig11", grid=configs, scale=Scale.PAPER.value, name="fig11-paper"
    )


#: Named scenario bundles — curated grids for the paper's sensitivity studies
#: (default scale) and one paper-scale bundle per figure.
SCENARIOS: Dict[str, Callable[[], SweepSpec]] = {
    "fig3-wealth-grid": _fig3_wealth_grid,
    "fig9-taxation-grid": _fig9_taxation_grid,
    "fig11-churn-grid": _fig11_churn_grid,
    "fig5_6-streaming-smoke": _fig5_6_streaming_smoke,
    "fig11-streaming-smoke": _fig11_streaming_smoke,
    "fig1-paper": _fig1_paper,
    "fig2-paper": _fig2_paper,
    "fig3-paper": _fig3_paper,
    "fig4-paper": _fig4_paper,
    "fig5_6-paper": _fig5_6_paper,
    "fig7-paper": _fig7_paper,
    "fig8-paper": _fig8_paper,
    "fig9-paper": _fig9_paper,
    "fig10-paper": _fig10_paper,
    "fig11-paper": _fig11_paper,
}


def scenario(
    name: str,
    replications: Optional[int] = None,
    base_seed: Optional[int] = None,
    scale: Optional[str] = None,
) -> SweepSpec:
    """Instantiate a named scenario bundle, optionally overriding run knobs."""
    try:
        spec = SCENARIOS[name]()
    except KeyError as error:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from error
    if replications is not None:
        spec.replications = replications
    if base_seed is not None:
        spec.base_seed = base_seed
    if scale is not None:
        spec.scale = Scale(scale).value
    return spec


def build_spec(
    target: str,
    grid: Optional[object] = None,
    replications: int = 1,
    base_seed: int = 0,
    scale: Optional[str] = None,
) -> SweepSpec:
    """Resolve ``target`` into a validated :class:`SweepSpec`.

    ``target`` is either a named scenario bundle (which keeps its pinned
    scale unless ``scale`` is given, and whose grid ``grid`` overrides
    when provided) or a sweepable experiment id (swept over ``grid``, at
    ``scale`` or the default scale).  Every axis name in the expanded
    configurations is validated against the experiment's declared sweep
    parameters before anything executes, so a typo'd axis raises one
    clean ``KeyError``/``ValueError`` here instead of a per-shard failure
    inside a worker.  Shared by the CLI (string-parsed grids) and the
    ``repro serve`` daemon (JSON-provided grids).
    """
    from repro.experiments import get_sweep_runner, validate_sweep_config

    if target in SCENARIOS:
        spec = scenario(target, replications=replications, base_seed=base_seed, scale=scale)
        if grid is not None:
            spec.grid = grid
    else:
        spec = SweepSpec(
            target,
            grid=grid if grid is not None else ParamGrid(),
            replications=replications,
            base_seed=base_seed,
            scale=scale or Scale.DEFAULT.value,
        )
    # (An empty grid's single {} config is a whole-experiment replication
    # and carries no axes to validate — but the experiment itself must
    # still exist, so an unknown target fails here, not inside a worker.)
    axis_names = {name for config in spec.configs() for name in config}
    if axis_names:
        validate_sweep_config(spec.experiment_id, axis_names)
    else:
        get_sweep_runner(spec.experiment_id)
    return spec
