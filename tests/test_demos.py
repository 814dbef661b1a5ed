import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo, workdir):
    # a copy in workdir, so that files a demo writes next to itself stay
    # out of the source tree
    copy = shutil.copy(demo, workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(copy)],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_all_four_demos_present():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    proc = _run(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr
    if demo.name == "symmetric_gap_reconstruction.py":
        assert "found: (7, 8)" in proc.stdout
    if demo.name == "wilf_grid_and_fundamental_gaps.py":
        assert (tmp_path / "wilf_grid_8_13.svg").read_text().startswith("<svg")
