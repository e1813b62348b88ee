import os
import subprocess
import sys

import pytest

from helpers import REPO

DEMOS = sorted((REPO / "demos").glob("*.py"))
SENTINELS = {
    "counterexample_walkthrough": "inflates the total to 4",
    "homology_playground": "invariant factors",
    "stabilization_signs": "matches the band's disc/sphere pair homology: yes",
    "thom_pairs": "NOT reproduced",
}


def test_every_demo_has_a_sentinel():
    assert sorted(p.stem for p in DEMOS) == sorted(SENTINELS)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(script):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert SENTINELS[script.stem] in proc.stdout


def test_readme_library_example_prints_what_its_comments_promise():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False t - t^2 + t^3", "Z/2"]
