"""Every script in ``demos/``, and the README's library tour, runs against the library source.

Each demo runs in a fresh interpreter with ``PYTHONPATH`` set to the source
tree, and with its working directory and output directory both in a
temporary directory, so nothing is written into the repository.  The
README's one ``python`` block runs the same way, so the public names it
shows cannot drift from the library.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


def run_script(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    run_script([str(demo), str(tmp_path)], tmp_path)


def test_readme_tour_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    run_script(["-c", blocks[0]], tmp_path)
