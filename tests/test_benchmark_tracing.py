"""The benchmark's traced pass must still find every layer it wraps.

``perfbench/traced.py`` sets timing wrappers on module attributes of the
package by name. A rename in the package would make ``--trace 1`` fail
or go silent, so a small traced pass runs here on every test run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_pass_reaches_kernel_layers(tmp_path):
    scn = str(tmp_path / "s.json")
    plan = {"traced": True, "commands": [
        ["gen", ["gen", "--seed", "1", "--tes", "5", "--ess", "3",
                 "--slots", "4", "-o", scn]],
        ["run", ["run", "--scenario", scn, "--out-dir",
                 str(tmp_path / "out")]],
        ["oracle", ["oracle", "--scenario", scn, "--slot", "0",
                    "--probes", "5", "--samples", "5",
                    "-o", str(tmp_path / "report.json")]],
        ["oracle", ["oracle", "--scenario", scn, "--slot", "0",
                    "--probes", "5", "--samples", "5",
                    "--result", str(tmp_path / "out"),
                    "-o", str(tmp_path / "result_report.json")]],
    ]}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out_path = tmp_path / "pass.json"
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"),
         str(plan_path), str(out_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out_path.read_text())
    codes = [c["exit"] for c in doc["commands"]]
    # 6 is the oracle's verdict on the run (a tolerance violation), which
    # this test does not judge; any other code is a broken pass
    assert codes[:3] == [0, 0, 0] and codes[3] in (0, 6), proc.stderr
    names = {span[0] for span in doc["spans"]}
    assert {"kernels.es_phase", "kernels.te_phase",
            "kernels.project_rows_np"} <= names
    # oracle --result solves every customer's best response in one call,
    # with one batched projection
    assert "equilibrium_oracle.best_response" in names
    assert doc["counts"]["equilibrium_oracle.best_response_steps"] == 1
