"""Engine features: rule selection, SARIF output, the rule catalogue."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import UnknownRuleError, check_paths, main

CLEAN = (
    '"""Clean module."""\n'
    "\n"
    "def double(values):\n"
    "    return [v * 2 for v in values]\n"
)

VIOLATING = (
    '"""Module with a transitive async-blocking bug."""\n'
    "\n"
    "import time\n"
    "\n"
    "\n"
    "def _backoff():\n"
    "    time.sleep(0.1)\n"
    "\n"
    "\n"
    "async def handle():\n"
    "    _backoff()\n"
)


@pytest.fixture()
def tree(tmp_path: Path) -> Path:
    pkg = tmp_path / "src" / "repro" / "serving"
    pkg.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "clean.py").write_text(CLEAN)
    (pkg / "hot.py").write_text(VIOLATING)
    return tmp_path


def run(tree: Path, **kwargs):
    return check_paths([tree / "src"], **kwargs)


class TestRuleSelection:
    def test_unknown_rule_raises_with_suggestions(self, tree):
        with pytest.raises(UnknownRuleError) as info:
            run(tree, select=["RPL-A999"])
        assert "no such rule" in str(info.value)
        assert info.value.suggestions  # near-misses offered

    def test_cli_unknown_rule_exits_2(self, tree, capsys):
        code = main([str(tree / "src"), "--select", "RPL-ZZZ"])
        assert code == 2
        err = capsys.readouterr().err
        assert "no such rule: RPL-ZZZ" in err
        assert "did you mean" in err

    def test_comma_separated_select(self, tree):
        diagnostics, _ = run(tree, select=["RPL-A002,RPL-C003"])
        assert {d.rule for d in diagnostics} == {"RPL-A002"}


class TestSarif:
    def test_sarif_document_shape(self, tree):
        out = tree / "lint.sarif"
        code = main([str(tree / "src"), "--format", "sarif",
                     "--output", str(out)])
        assert code == 1
        document = json.loads(out.read_text())
        assert document["version"] == "2.1.0"
        run_ = document["runs"][0]
        assert run_["tool"]["driver"]["name"] == "reprolint"
        rule_ids = {rule["id"] for rule in run_["tool"]["driver"]["rules"]}
        assert {"RPL-A002", "RPL-D005", "RPL-P003", "RPL-C003"} <= rule_ids
        results = run_["results"]
        assert results and results[0]["ruleId"] == "RPL-A002"
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 11


class TestListRules:
    def test_new_rules_in_catalogue(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPL-A002", "RPL-D005", "RPL-P003", "RPL-C003"):
            assert rule_id in out
        assert "[whole-program]" in out
