"""Tests for the project-wide analyzer: the pass-1 model (module names,
re-export resolution) and the pass-2 SEED/THREAD rule families and
cross-module DET002, each with a planted violation and a clean
counterpart."""

import ast
import textwrap

from repro.analysis import FileContext, analyze_paths
from repro.analysis.project import ProjectModel, module_name_for

MINI_PACKAGE = {
    "src/repro/mini/__init__.py": """
        from repro.mini.core import compute
        """,
    "src/repro/mini/core.py": """
        from repro.mini.util import helper

        def compute():
            return helper()
        """,
    "src/repro/mini/util.py": """
        def helper():
            return 1
        """,
    "src/repro/mini/driver.py": """
        from repro.mini import compute

        def run():
            return compute()
        """,
}


def write_tree(root, files):
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def build_model(files):
    contexts = []
    for rel, source in sorted(files.items()):
        source = textwrap.dedent(source)
        contexts.append(FileContext(path=rel, source=source, tree=ast.parse(source)))
    return ProjectModel.build(contexts)


def active_rules(root, files, paths=None):
    write_tree(root, files)
    report = analyze_paths([str(root / p) for p in (paths or ["src"])])
    return sorted({f.rule for f in report.findings}), report


class TestModuleNames:
    def test_source_root_is_stripped(self):
        assert module_name_for("src/repro/runner/grid.py") == "repro.runner.grid"

    def test_package_init_names_the_package(self):
        assert module_name_for("src/repro/mini/__init__.py") == "repro.mini"

    def test_paths_outside_src_keep_their_shape(self):
        assert module_name_for("tests/test_cli.py") == "tests.test_cli"
        assert module_name_for("examples/quickstart.py") == "examples.quickstart"


class TestProjectModel:
    def test_resolve_follows_reexport_chain(self):
        # driver imports `compute` from the package __init__, which
        # re-exports it from repro.mini.core — the name lands on the origin.
        model = build_model(MINI_PACKAGE)
        assert model.resolve("repro.mini.compute", "repro.mini.driver") == (
            "repro.mini.core:compute"
        )
        assert model.resolve("repro.mini.util.helper", "repro.mini.core") == (
            "repro.mini.util:helper"
        )
        # Module-local names resolve through the recording module's imports.
        assert model.resolve("local:compute", "repro.mini.driver") == (
            "repro.mini.core:compute"
        )
        assert model.resolve("local:helper", "repro.mini.core") == "repro.mini.util:helper"
        assert model.resolve("numpy.random.default_rng", "repro.mini.core") == (
            "numpy.random.default_rng"
        )

    def test_model_is_keyed_by_display_path(self):
        model = build_model(MINI_PACKAGE)
        assert sorted(model.summaries) == sorted(MINI_PACKAGE)
        assert model.modules["repro.mini"].path == "src/repro/mini/__init__.py"


class TestSeedRules:
    def test_module_global_rng_feeding_an_experiment_fires(self, tmp_path):
        rules, report = active_rules(
            tmp_path,
            {
                "src/repro/experiments/figx.py": """
                    import numpy as np

                    _RNG = np.random.default_rng(123)

                    def run_point(scale="full", seed=0):
                        return float(_RNG.normal())
                    """
            },
        )
        assert "SEED002" in rules
        (escape,) = [f for f in report.findings if f.rule == "SEED002"]
        assert "module global" in escape.message

    def test_unseeded_generator_in_simulation_fires(self, tmp_path):
        rules, _ = active_rules(
            tmp_path,
            {
                "src/repro/p2psim/sampler.py": """
                    import numpy as np

                    def sample(n):
                        rng = np.random.default_rng()
                        return rng.normal(size=n)
                    """
            },
        )
        assert "SEED001" in rules

    def test_seed_flowing_through_call_hops_is_clean(self, tmp_path):
        # The seed is a literal at the construction site, but it flows
        # through a local helper that returns derive_seed(...) — the
        # cross-module closure must sanction it.
        rules, _ = active_rules(
            tmp_path,
            {
                "src/repro/mini/seeds.py": """
                    from repro.utils.rng import derive_seed

                    def child(base, label):
                        return derive_seed(base, label)
                    """,
                "src/repro/mini/sim.py": """
                    import numpy as np

                    from repro.mini.seeds import child

                    def run(base_seed):
                        rng = np.random.default_rng(child(base_seed, "sim"))
                        return rng.normal()
                    """,
            },
        )
        assert "SEED001" not in rules
        assert "SEED002" not in rules

    def test_injected_parameter_and_config_field_are_clean(self, tmp_path):
        rules, _ = active_rules(
            tmp_path,
            {
                "src/repro/mini/sim.py": """
                    import numpy as np

                    def run(seed, config):
                        a = np.random.default_rng(seed)
                        b = np.random.default_rng(config.seed)
                        return a.normal() + b.normal()
                    """
            },
        )
        assert "SEED001" not in rules

    def test_default_argument_generator_fires(self, tmp_path):
        rules, report = active_rules(
            tmp_path,
            {
                "src/repro/mini/sim.py": """
                    import numpy as np

                    def run(rng=np.random.default_rng(7)):
                        return rng.normal()
                    """
            },
        )
        assert "SEED002" in rules
        (escape,) = [f for f in report.findings if f.rule == "SEED002"]
        assert "default argument" in escape.message


class TestThreadRules:
    SERVICE = """
        import threading

        class Service:
            def __init__(self):
                self._jobs = {{}}
                self._lock = threading.Lock()

            def submit(self, job):
                {submit_body}

            def get(self, job):
                with self._lock:
                    return self._jobs.get(job)

            def start(self):
                threading.Thread(target=self._run, daemon=True).start()

            def _run(self):
                pass
        """

    def test_unlocked_dict_mutated_from_worker_class_fires(self, tmp_path):
        rules, report = active_rules(
            tmp_path,
            {
                "src/repro/obs/servefix.py": self.SERVICE.format(
                    submit_body="self._jobs[job] = 1"
                )
            },
        )
        assert "THREAD001" in rules
        (finding,) = [f for f in report.findings if f.rule == "THREAD001"]
        assert "_jobs" in finding.message and "Service.submit" in finding.message

    def test_locked_access_on_every_path_is_clean(self, tmp_path):
        rules, _ = active_rules(
            tmp_path,
            {
                "src/repro/obs/servefix.py": self.SERVICE.format(
                    submit_body="""
                with self._lock:
                    self._jobs[job] = 1
                """.strip()
                )
            },
        )
        assert "THREAD001" not in rules

    def test_emitter_captured_into_thread_closure_fires(self, tmp_path):
        rules, _ = active_rules(
            tmp_path,
            {
                "src/repro/runner/spawnfix.py": """
                    import threading

                    from repro.obs import get_emitter

                    def launch():
                        emitter = get_emitter()

                        def work():
                            emitter.counter("jobs")

                        threading.Thread(target=work).start()
                    """
            },
        )
        assert "THREAD002" in rules

    def test_emitter_resolved_inside_the_thread_is_clean(self, tmp_path):
        rules, _ = active_rules(
            tmp_path,
            {
                "src/repro/runner/spawnfix.py": """
                    import threading

                    from repro.obs import get_emitter

                    def launch():
                        def work():
                            get_emitter().counter("jobs")

                        threading.Thread(target=work).start()
                    """
            },
        )
        assert "THREAD002" not in rules


#: A graph module whose lookups return sets, and a walker module that
#: iterates them without sorting — the order leak DET002 must see across
#: the module boundary.
SET_RETURNING_GRAPH = {
    "src/repro/mini/graph.py": """
        from typing import FrozenSet, Set

        class Graph:
            def __init__(self):
                self._adjacency = {}

            def neighbours(self, peer) -> FrozenSet[int]:
                return frozenset(self._adjacency[peer])

            def degree(self, peer) -> int:
                return len(self._adjacency[peer])

        def members(graph) -> "Set[int]":
            return set(graph._adjacency)
        """,
}


class TestCrossModuleUnorderedIteration:
    def test_iterating_a_set_returning_call_fires(self, tmp_path):
        files = dict(SET_RETURNING_GRAPH)
        files["src/repro/mini/walk.py"] = """
            from repro.mini.graph import members

            def route(graph, peer):
                return [n for n in graph.neighbours(peer)]

            def census(graph):
                for peer in list(members(graph)):
                    yield peer
            """
        rules, report = active_rules(tmp_path, files)
        assert rules == ["DET002"]
        messages = sorted(f.message for f in report.findings)
        assert len(messages) == 2
        assert "`members(...)`" in messages[0]
        assert "`neighbours(...)`" in messages[1]
        assert {f.path.rsplit("/", 1)[-1] for f in report.findings} == {"walk.py"}

    def test_sorted_and_non_set_calls_are_clean(self, tmp_path):
        files = dict(SET_RETURNING_GRAPH)
        files["src/repro/mini/walk.py"] = """
            from repro.mini.graph import members

            def route(graph, peer):
                return [n for n in sorted(graph.neighbours(peer))]

            def census(graph):
                for peer in sorted(members(graph)):
                    yield peer
                for _ in range(graph.degree(0)):
                    yield None
            """
        rules, _ = active_rules(tmp_path, files)
        assert rules == []

    def test_method_called_on_self_resolves_to_its_class(self, tmp_path):
        files = {
            "src/repro/mini/graph.py": """
                from typing import Set

                class Graph:
                    def peers(self) -> Set[int]:
                        return {1, 2}

                    def walk(self):
                        return [p for p in self.peers()]
                """,
        }
        rules, report = active_rules(tmp_path, files)
        assert rules == ["DET002"]
        assert "`Graph.peers(...)`" in report.findings[0].message
