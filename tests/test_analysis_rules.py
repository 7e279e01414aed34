"""Fixture-pair tests for every rule shipped by ``repro.analysis``.

Each rule gets at least one violating snippet proving it fires and one
clean counterpart proving it stays quiet — the analyzer's own
bit-identity contract, in miniature.
"""

import ast
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    DEFAULT_CONFIG,
    AllowedContext,
    AnalysisConfig,
    all_rules,
    analyze_file,
    select_rules,
)
from repro.analysis.core import FileContext

#: The directory holding the ``repro`` package, for resolving scope patterns.
SRC_ROOT = Path(repro.__file__).resolve().parent.parent
#: A path whose segments put fixtures in scope for every simulation rule.
SIM_PATH = "src/repro/p2psim/fixture.py"
#: A path outside every contract scope (telemetry is exempt by design).
OBS_PATH = "src/repro/obs/fixture.py"


def run_rules(source, path=SIM_PATH, config=DEFAULT_CONFIG):
    source = textwrap.dedent(source)
    ctx = FileContext(path, source, ast.parse(source))
    findings = []
    for rule in all_rules():
        if config.in_scope(rule.id, ctx):
            findings.extend(rule.check(ctx, config))
    return findings


def fired(source, **kwargs):
    return sorted({finding.rule for finding in run_rules(source, **kwargs)})


class TestDET001GlobalRng:
    def test_np_random_sampling_fires(self):
        findings = run_rules(
            """
            import numpy as np

            def spend(n):
                return np.random.poisson(1.0, size=n)
            """
        )
        assert [f.rule for f in findings] == ["DET001"]
        assert "numpy.random.poisson" in findings[0].message

    def test_module_alias_and_member_import_fire(self):
        assert fired(
            """
            import numpy.random as npr

            def f():
                return npr.rand(3)
            """
        ) == ["DET001"]
        assert fired(
            """
            from numpy.random import rand

            def f():
                return rand(3)
            """
        ) == ["DET001"]

    def test_stdlib_random_fires(self):
        assert fired(
            """
            import random

            def churn(peers):
                random.shuffle(peers)
            """
        ) == ["DET001"]
        assert fired(
            """
            from random import choice

            def pick(peers):
                return choice(peers)
            """
        ) == ["DET001"]

    def test_system_random_fires(self):
        assert fired(
            """
            import random

            def entropy():
                return random.SystemRandom()
            """
        ) == ["DET001"]

    def test_injected_generator_is_clean(self):
        assert fired(
            """
            import numpy as np

            def spend(rng: np.random.Generator, n):
                return rng.poisson(1.0, size=n)

            def make(seed):
                return np.random.default_rng(seed)
            """
        ) == []

    def test_seeded_stdlib_instance_is_clean(self):
        assert fired(
            """
            import random

            def make(seed):
                return random.Random(seed)
            """
        ) == []

    def test_obs_package_is_out_of_scope(self):
        assert fired(
            """
            import numpy as np

            def jitter():
                return np.random.poisson(1.0)
            """,
            path=OBS_PATH,
        ) == []

    def test_benchmarks_are_in_scope(self):
        assert fired(
            """
            import numpy as np

            def load():
                return np.random.poisson(1.0)
            """,
            path="benchmarks/bench_fixture.py",
        ) == ["DET001"]


class TestDET002UnorderedIteration:
    def test_set_call_iteration_fires(self):
        findings = run_rules(
            """
            def route(peers):
                for peer in set(peers):
                    yield peer
            """
        )
        assert [f.rule for f in findings] == ["DET002"]

    def test_set_literal_and_comprehension_fire(self):
        assert fired(
            """
            def f():
                return [x for x in {1, 2, 3}]
            """
        ) == ["DET002"]
        assert fired(
            """
            def f(a, b):
                for x in a.union(b):
                    yield x
            """
        ) == ["DET002"]

    def test_set_typed_local_fires(self):
        assert fired(
            """
            def f(xs):
                alive = set(xs)
                for x in alive:
                    yield x
            """
        ) == ["DET002"]

    def test_list_wrapper_does_not_hide_the_set(self):
        assert fired(
            """
            def f(xs):
                for x in list(set(xs)):
                    yield x
            """
        ) == ["DET002"]

    def test_filesystem_listings_fire(self):
        assert fired(
            """
            import os

            def scan(root):
                for name in os.listdir(root):
                    yield name
            """
        ) == ["DET002"]
        assert fired(
            """
            def scan(root):
                for entry in root.iterdir():
                    yield entry
            """
        ) == ["DET002"]

    def test_sorted_iteration_is_clean(self):
        assert fired(
            """
            def route(peers, root):
                for peer in sorted(set(peers)):
                    yield peer
                for entry in sorted(root.iterdir()):
                    yield entry
            """
        ) == []

    def test_sorted_reassignment_sanitizes_the_name(self):
        # `x = sorted(x)` is exactly the fix the rule asks for — the name
        # is an ordered list from then on, not a set.
        assert fired(
            """
            def f(xs):
                alive = set(xs)
                alive = sorted(alive)
                for x in alive:
                    yield x
            """
        ) == []

    def test_list_sorted_reassignment_sanitizes_the_name(self):
        assert fired(
            """
            def f(xs):
                alive = set(xs)
                alive = list(sorted(alive))
                for x in alive:
                    yield x
            """
        ) == []

    def test_unsanitized_reassignment_still_fires(self):
        # Rebinding to `list(...)` (no sorted) preserves the unordered
        # traversal, so the name stays flagged.
        assert fired(
            """
            def f(xs):
                alive = set(xs)
                alive = list(alive)
                for x in alive:
                    yield x
            """
        ) == ["DET002"]

    def test_resanitized_name_can_become_a_set_again(self):
        assert fired(
            """
            def f(xs, ys):
                alive = sorted(xs)
                alive = set(ys)
                for x in alive:
                    yield x
            """
        ) == ["DET002"]

    def test_dict_views_are_deliberately_allowed(self):
        # CPython dicts iterate in insertion order; flagging them would be
        # pure noise (see config.py for the scoping rationale).
        assert fired(
            """
            def f(d):
                for key, value in d.items():
                    yield key, value
            """
        ) == []

    def test_allowed_context_exempts_bookkeeping(self):
        config = AnalysisConfig(
            rule_scopes=DEFAULT_CONFIG.rule_scopes,
            allowed_contexts={
                "DET002": (
                    AllowedContext(
                        path="repro/p2psim/fixture.py",
                        qualname="Store.count",
                        reason="order-insensitive reduction",
                    ),
                )
            },
        )
        source = """
        class Store:
            def count(self, root):
                return sum(1 for _ in root.glob("*.pkl"))
        """
        assert fired(source, config=config) == []
        assert fired(source) == ["DET002"]


class TestDET003WallClock:
    def test_time_time_fires_in_result_path(self):
        findings = run_rules(
            """
            import time

            def stamp():
                return time.time()
            """,
            path="src/repro/runner/fixture.py",
        )
        assert [f.rule for f in findings] == ["DET003"]

    def test_datetime_now_fires(self):
        assert fired(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """
        ) == ["DET003"]
        assert fired(
            """
            import datetime

            def stamp():
                return datetime.datetime.utcnow()
            """
        ) == ["DET003"]

    def test_monotonic_spans_are_clean(self):
        assert fired(
            """
            import time

            def measure():
                started = time.perf_counter()
                return time.perf_counter() - started
            """
        ) == []

    def test_obs_is_out_of_scope(self):
        assert fired(
            """
            import time

            def stamp():
                return time.time()
            """,
            path=OBS_PATH,
        ) == []

    def test_default_config_exempts_no_wall_clock_read(self):
        # No function in a result-path package may read the wall clock,
        # not even through a reviewed allowed context.
        assert "DET003" not in DEFAULT_CONFIG.allowed_contexts


class TestOBS001UnguardedEmitter:
    def test_unguarded_loop_emit_fires(self):
        findings = run_rules(
            """
            def run(emitter, rounds):
                for i in range(rounds):
                    emitter.point("gini", i, 0.5)
            """
        )
        assert [f.rule for f in findings] == ["OBS001"]

    def test_unguarded_span_and_get_emitter_fire(self):
        assert fired(
            """
            def run(emitter, rounds):
                while rounds:
                    with emitter.span("tick"):
                        rounds -= 1
            """
        ) == ["OBS001"]
        assert fired(
            """
            from repro.obs import get_emitter

            def run(rounds):
                for _ in range(rounds):
                    get_emitter().counter("tick")
            """
        ) == ["OBS001"]

    def test_branch_on_local_bool_is_clean(self):
        assert fired(
            """
            def run(emitter, rounds):
                observing = emitter.enabled
                for i in range(rounds):
                    if observing:
                        emitter.point("gini", i, 0.5)
            """
        ) == []

    def test_enabled_attribute_guard_is_clean(self):
        assert fired(
            """
            def run(emitter, samples):
                for i, value in enumerate(samples):
                    if emitter.enabled and value > 0:
                        emitter.point("gini", i, value)
            """
        ) == []

    def test_emit_outside_loop_is_clean(self):
        assert fired(
            """
            def run(emitter, rounds):
                for _ in range(rounds):
                    pass
                emitter.gauge("steps_per_second", rounds)
            """
        ) == []

    def test_else_branch_of_guard_still_fires(self):
        # An emitter call on the disabled branch defeats the guard.
        assert fired(
            """
            def run(emitter, rounds):
                observing = emitter.enabled
                for i in range(rounds):
                    if observing:
                        pass
                    else:
                        emitter.point("gini", i, 0.5)
            """
        ) == ["OBS001"]


def _analyze_fixture(tmp_path, source, name="fixture.py"):
    target = tmp_path / "src" / "repro" / "p2psim" / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return analyze_file(target)


class TestNOQA001SuppressionHygiene:
    def test_bare_noqa_fires_and_does_not_suppress(self, tmp_path):
        findings = _analyze_fixture(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()  # repro: noqa
            """,
        )
        assert sorted(f.rule for f in findings) == ["DET003", "NOQA001"]
        det003 = [f for f in findings if f.rule == "DET003"]
        assert det003[0].status == "active"

    def test_missing_reason_fires(self, tmp_path):
        findings = _analyze_fixture(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()  # repro: noqa DET003
            """,
        )
        assert sorted(f.rule for f in findings) == ["DET003", "NOQA001"]

    def test_wellformed_suppression_is_clean_and_suppresses(self, tmp_path):
        findings = _analyze_fixture(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()  # repro: noqa DET003 -- feeds a log line only
            """,
        )
        assert [f.rule for f in findings] == ["DET003"]
        assert findings[0].status == "suppressed"
        assert findings[0].justification == "feeds a log line only"

    def test_syntax_mention_in_docstring_is_not_a_suppression(self, tmp_path):
        findings = _analyze_fixture(
            tmp_path,
            '''
            """Docs may show `# repro: noqa DET001 -- reason` verbatim."""
            ''',
        )
        assert findings == []


class TestNOQA002StaleSuppressions:
    def test_unused_suppression_fires(self, tmp_path):
        findings = _analyze_fixture(
            tmp_path,
            """
            def stamp():
                return 42  # repro: noqa DET003 -- nothing to suppress here
            """,
        )
        assert [f.rule for f in findings] == ["NOQA002"]

    def test_used_suppression_is_clean(self, tmp_path):
        findings = _analyze_fixture(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()  # repro: noqa DET003 -- bookkeeping only
            """,
        )
        assert [f.rule for f in findings if f.rule == "NOQA002"] == []


class TestPARSE001:
    def test_syntax_error_fires(self, tmp_path):
        findings = _analyze_fixture(tmp_path, "def broken(:\n    pass\n")
        assert [f.rule for f in findings] == ["PARSE001"]

    def test_valid_file_is_clean(self, tmp_path):
        assert _analyze_fixture(tmp_path, "x = 1\n") == []


class TestRegistry:
    def test_every_rule_registered_once(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
        assert set(ids) == {
            "DET001",
            "DET002",
            "DET003",
            "OBS001",
            "SEED001",
            "SEED002",
            "THREAD001",
            "THREAD002",
            "SWEEP001",
            "SWEEP002",
            "NOQA001",
            "NOQA002",
            "PARSE001",
        }

    def test_every_rule_has_summary_and_severity(self):
        for rule in all_rules():
            assert rule.summary, rule.id
            assert rule.severity.value in ("error", "warning")

    def test_select_rules_rejects_unknown(self):
        with pytest.raises(KeyError):
            select_rules(["DET999"])
        assert [rule.id for rule in select_rules(["DET001", "OBS001"])] == [
            "DET001",
            "OBS001",
        ]


class TestDefaultConfig:
    def test_every_repro_path_names_existing_code(self):
        # A pattern left behind by a deleted package silently scopes nothing.
        patterns = [
            (rule_id, pattern)
            for rule_id, scope in DEFAULT_CONFIG.rule_scopes.items()
            for pattern in scope.include + scope.exclude
            if pattern.startswith("repro/")
        ] + [
            (rule_id, context.path)
            for rule_id, contexts in DEFAULT_CONFIG.allowed_contexts.items()
            for context in contexts
        ]
        for rule_id, pattern in patterns:
            if pattern.endswith("/"):
                assert (SRC_ROOT / pattern / "__init__.py").is_file(), (rule_id, pattern)
            else:
                assert (SRC_ROOT / pattern).is_file(), (rule_id, pattern)
