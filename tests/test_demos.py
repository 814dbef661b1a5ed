import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout, with the directory it runs in written as
# "<workdir>"
STDOUT_SHA256 = {
    "general_semigroup_gap_classes.py": "8046e54194ea61dd98455cd6e83aa2825222d9d732b95b2b9b012837a9ac5290",
    "lattice_paths_and_syzygies.py": "db9f5aeba91da7b28d2abcc1f5e5067086d38289ec6aed416c44e0f06034f9ac",
    "symmetric_gap_reconstruction.py": "b445cab3ab190aa9516a29026d35d324e04b78a8d7c60cfb2fbdf91ebd692cf0",
    "wilf_grid_and_fundamental_gaps.py": "d9d9c5486e432beb613a39706061244528dfa9ba6dd2f9348cbaf9d46ebd66fa",
}


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
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    proc = _run(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr
    stdout = proc.stdout.replace(str(tmp_path), "<workdir>")
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name], stdout
    if demo.name == "symmetric_gap_reconstruction.py":
        assert "found: (7, 8)" in proc.stdout
    if demo.name == "wilf_grid_and_fundamental_gaps.py":
        assert (tmp_path / "wilf_grid_8_13.svg").read_text().startswith("<svg")
