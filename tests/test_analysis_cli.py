"""End-to-end tests for ``repro analyze``: exit codes, JSON report,
suppressions, file discovery, the one-parse-per-file pass structure, and
the self-check that the repository itself is clean."""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import FileContext, analyze_paths, walker
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent

VIOLATING = """
import time

def stamp():
    return time.time()
"""

CLEAN = """
import time

def measure():
    started = time.perf_counter()
    return time.perf_counter() - started
"""


def _write_fixture(root, source, name="fixture.py"):
    target = root / "src" / "repro" / "runner" / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return target


class TestAnalyzeCommand:
    def test_findings_exit_nonzero(self, tmp_path, capsys):
        target = _write_fixture(tmp_path, VIOLATING)
        code = main(["analyze", str(target)])
        out = capsys.readouterr().out
        assert code == 1
        assert "DET003" in out
        assert "1 finding(s)" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = _write_fixture(tmp_path, CLEAN)
        code = main(["analyze", str(target)])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "nope")])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        target = _write_fixture(tmp_path, CLEAN)
        code = main(["analyze", str(target), "--rules", "DET999"])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_rules_filter(self, tmp_path, capsys):
        target = _write_fixture(tmp_path, VIOLATING)
        assert main(["analyze", str(target), "--rules", "DET001"]) == 0
        assert main(["analyze", str(target), "--rules", "DET003"]) == 1
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "DET003", "OBS001", "SEED001"):
            assert rule_id in out

    def test_json_report_structure(self, tmp_path, capsys):
        target = _write_fixture(tmp_path, VIOLATING)
        report_path = tmp_path / "report.json"
        code = main(["analyze", str(target), "--json", str(report_path)])
        capsys.readouterr()
        assert code == 1
        payload = json.loads(report_path.read_text())
        assert payload["version"] == 2
        assert payload["files_analyzed"] == 1
        assert payload["summary"] == {"active": 1, "suppressed": 0, "per_rule": {"DET003": 1}}
        assert payload["project_model"] == {"modules_total": 1}
        (finding,) = payload["findings"]
        assert set(finding) == {
            "rule", "severity", "path", "line", "col", "message", "snippet",
            "status", "justification",
        }
        assert finding["rule"] == "DET003"
        assert finding["status"] == "active"
        assert finding["snippet"] == "return time.time()"

    def test_human_summary_counts_modules_only(self, tmp_path, capsys):
        target = _write_fixture(tmp_path, VIOLATING)
        main(["analyze", str(target)])
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2] == "1 files analyzed: 1 finding(s) (DET003=1), 0 suppressed"
        assert lines[-1] == "project model: 1 modules"

    def test_run_writes_nothing_but_the_json_report(self, tmp_path, monkeypatch, capsys):
        _project_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert main(["analyze", "src", "--json", "report.json"]) == 1
        capsys.readouterr()
        assert sorted(tmp_path.rglob("*")) == sorted(before + [tmp_path / "report.json"])


class TestSuppressionRoundTrip:
    def test_suppression_lifecycle(self, tmp_path, capsys):
        # 1. violation gates
        target = _write_fixture(tmp_path, VIOLATING)
        assert main(["analyze", str(target)]) == 1
        # 2. justified suppression waves it through
        target.write_text(
            textwrap.dedent(VIOLATING).replace(
                "return time.time()",
                "return time.time()  # repro: noqa DET003 -- demo fixture",
            ),
            encoding="utf-8",
        )
        assert main(["analyze", str(target)]) == 0
        assert "1 suppressed" in capsys.readouterr().out
        # 3. fixing the code makes the suppression stale: gates again
        target.write_text(
            textwrap.dedent(CLEAN).replace(
                "return time.perf_counter() - started",
                "return time.perf_counter() - started  # repro: noqa DET003 -- demo fixture",
            ),
            encoding="utf-8",
        )
        code = main(["analyze", str(target)])
        out = capsys.readouterr().out
        assert code == 1
        assert "NOQA002" in out


ALPHA = """
def helper():
    return 1
"""

BETA = """
from repro.runner.alpha import helper

def run():
    return helper()
"""


def _project_tree(root):
    _write_fixture(root, ALPHA, name="alpha.py")
    _write_fixture(root, BETA, name="beta.py")
    _write_fixture(root, VIOLATING, name="gamma.py")
    return root / "src"


class TestProjectTree:
    def test_full_run_reports_every_module(self, tmp_path, capsys):
        _project_tree(tmp_path)
        assert main(["analyze", str(tmp_path / "src")]) == 1
        out = capsys.readouterr().out
        assert "gamma.py:5:11: DET003" in out
        assert "3 files analyzed: 1 finding(s)" in out
        assert "project model: 3 modules" in out

    def test_violation_in_an_importer_gates(self, tmp_path, capsys):
        # beta imports alpha; a violation planted in beta is reported
        # next to gamma's standing one on every run.
        _project_tree(tmp_path)
        _write_fixture(tmp_path, BETA + "\nimport time\nNOW = time.time()\n", name="beta.py")
        assert main(["analyze", str(tmp_path / "src")]) == 1
        out = capsys.readouterr().out
        assert "beta.py:8:6: DET003" in out
        assert "gamma.py:5:11: DET003" in out


    def test_repeat_runs_write_identical_reports(self, tmp_path, capsys):
        # Nothing carries over between runs, so the verdict is a pure
        # function of the sources.
        _project_tree(tmp_path)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["analyze", str(tmp_path / "src"), "--json", str(first)]) == 1
        assert main(["analyze", str(tmp_path / "src"), "--json", str(second)]) == 1
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_unparsable_file_gates_and_stays_out_of_the_model(self, tmp_path, capsys):
        _write_fixture(tmp_path, ALPHA, name="alpha.py")
        _write_fixture(tmp_path, "def broken(:\n", name="delta.py")
        assert main(["analyze", str(tmp_path / "src")]) == 1
        out = capsys.readouterr().out
        assert "delta.py:1:11: PARSE001" in out
        assert "2 files analyzed: 1 finding(s) (PARSE001=1)" in out
        assert "project model: 1 modules" in out

    def test_verbose_lists_suppressed_findings_with_their_reason(self, tmp_path, capsys):
        source = textwrap.dedent(VIOLATING).replace(
            "return time.time()", "return time.time()  # repro: noqa DET003 -- demo fixture"
        )
        target = _write_fixture(tmp_path, source)
        report_path = tmp_path / "report.json"
        assert main(["analyze", str(target), "--json", str(report_path)]) == 0
        assert "DET003" not in capsys.readouterr().out
        assert main(["analyze", str(target), "--verbose"]) == 0
        assert "DET003 error [suppressed]" in capsys.readouterr().out
        (finding,) = json.loads(report_path.read_text())["findings"]
        assert (finding["status"], finding["justification"]) == ("suppressed", "demo fixture")


class TestDiscovery:
    def test_file_paths_and_overlapping_roots_are_deduplicated(self, tmp_path):
        src = tmp_path / "src"
        for rel in ("b.py", "pkg/a.py"):
            (src / rel).parent.mkdir(parents=True, exist_ok=True)
            (src / rel).write_text("X = 1\n")
        found = walker.iter_python_files([src / "pkg", src, src / "b.py"])
        assert [p.relative_to(src).as_posix() for p in found] == ["pkg/a.py", "b.py"]


    def test_root_under_a_dot_directory_is_analyzed(self, tmp_path, capsys):
        root = tmp_path / ".x"
        target = root / "src" / "repro" / "p2psim" / "fixture.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\n\ndef draw():\n    return random.random()\n")
        report = analyze_paths([str((root / "src").resolve())])
        assert report.files_analyzed == 1
        assert [(f.rule, f.line) for f in report.active] == [("DET001", 4)]
        assert main(["analyze", str(root / "src")]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_dot_directories_below_the_root_are_skipped(self, tmp_path):
        src = tmp_path / "src"
        for rel in ("a.py", ".hidden/b.py", "__pycache__/c.py", "pkg/d.py"):
            (src / rel).parent.mkdir(parents=True, exist_ok=True)
            (src / rel).write_text("X = 1\n")
        found = walker.iter_python_files([src])
        assert [p.relative_to(src).as_posix() for p in found] == ["a.py", "pkg/d.py"]


class TestOneParsePerFile:
    def test_each_file_is_parsed_tokenized_and_contextualized_once(
        self, tmp_path, monkeypatch
    ):
        _project_tree(tmp_path)
        _write_fixture(tmp_path, "def broken(:\n", name="delta.py")
        calls = {"context": 0, "suppressions": 0, "parse": 0}
        init = FileContext.__init__
        parse_suppressions = walker.parse_suppressions
        parse = ast.parse

        def counting_init(self, *args, **kwargs):
            calls["context"] += 1
            init(self, *args, **kwargs)

        def counting_suppressions(source):
            calls["suppressions"] += 1
            return parse_suppressions(source)

        def counting_parse(*args, **kwargs):
            calls["parse"] += 1
            return parse(*args, **kwargs)

        monkeypatch.setattr(FileContext, "__init__", counting_init)
        monkeypatch.setattr(walker, "parse_suppressions", counting_suppressions)
        monkeypatch.setattr(ast, "parse", counting_parse)
        report = analyze_paths([str(tmp_path / "src")])
        monkeypatch.undo()

        # One FileContext per parseable file; every file read is tokenized
        # for suppressions and parsed exactly once.
        assert calls == {"context": 3, "suppressions": 4, "parse": 4}
        assert report.files_analyzed == 4
        assert report.modules_total == 3  # delta.py is PARSE001 only
        assert "PARSE001" in {f.rule for f in report.active}


class TestSelfCheck:
    @pytest.mark.parametrize(
        "paths",
        [
            ("src",),
            ("tests",),
            ("benchmarks",),
            ("examples",),
            ("src", "tests", "benchmarks", "examples"),
        ],
        ids=lambda paths: "+".join(paths),
    )
    def test_repository_is_clean(self, paths, monkeypatch, capsys):
        """`repro analyze src tests benchmarks examples` — the CI gate — passes."""
        monkeypatch.chdir(REPO_ROOT)
        code = main(["analyze", *paths])
        out = capsys.readouterr().out
        assert code == 0, out

    def test_allowed_contexts_are_load_bearing(self, monkeypatch):
        """Every configured exemption still covers a real finding.

        If a refactor removes the flagged code, the allowed context must be
        retired too — this is NOQA002 for config-level exemptions.
        """
        from repro.analysis import DEFAULT_CONFIG, AnalysisConfig

        monkeypatch.chdir(REPO_ROOT)
        bare = AnalysisConfig(rule_scopes=DEFAULT_CONFIG.rule_scopes, allowed_contexts={})
        report = analyze_paths(["src"], config=bare)
        uncovered = {(f.rule, f.path) for f in report.active}
        for rule_id, contexts in DEFAULT_CONFIG.allowed_contexts.items():
            for context in contexts:
                assert any(
                    rule == rule_id and path.endswith(context.path.split("/")[-1])
                    for rule, path in uncovered
                ), f"allowed context {rule_id}:{context.qualname} exempts nothing"
