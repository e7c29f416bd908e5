"""Smoke tests that keep the documentation in step with the library:
every narrative script under ``demos/`` and every fenced ``python`` block
of the README runs to completion, and ``paritygame.__all__`` lists exactly
the public names the package binds."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import paritygame

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def _run(args, cwd):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_demos_are_found():
    assert DEMOS
    assert README_BLOCKS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    result = _run([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    result = _run(["-c", block], tmp_path)
    assert result.returncode == 0, result.stderr


def test_all_lists_exactly_the_public_names_bound():
    tree = ast.parse(Path(paritygame.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in bound if not name.startswith("_")}
    assert len(paritygame.__all__) == len(set(paritygame.__all__))
    assert set(paritygame.__all__) == public


def test_all_is_the_public_api():
    # the 22 names of the pipeline: games, files, reduction, solving,
    # lifting and verification, and the parameterised generators
    assert sorted(paritygame.__all__) == sorted([
        "EVEN", "ODD", "Game", "Strategy", "Partition", "Solution", "VerifyResult",
        "FormatError", "convert_priorities", "parse_pgsolver", "write_pgsolver",
        "parse_solution", "write_solution", "refine_strong", "refine_stuttering", "quotient",
        "write_partition", "solve", "lift_solution", "verify_strategy", "gen_random",
        "gen_chain",
    ])
    # plays and the fixture games are test equipment, and game statistics
    # are ``info`` output
    for name in ("Play", "play_from", "GameStats", "stats", "gen_branch", "gen_divergent_pair"):
        assert not hasattr(paritygame, name), name
