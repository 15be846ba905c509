"""``tools/check_doc_links.py``: the Python-reference check.

Docs cite functions by dotted name (``repro.simulator.batch.run_batch``);
the lint must flag a name that no longer imports or resolves, and only
that name.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(REPO_ROOT, "tools", "check_doc_links.py")


def run_tool(*files):
    return subprocess.run([sys.executable, TOOL, *files],
                          capture_output=True, text=True, timeout=120)


def test_flags_only_the_unresolved_reference(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "The kernel is `repro.simulator.batch.run_batch`, see\n"
        "`repro.models.available_models()`; the table\n"
        "`repro.simulator.batch.NO_SUCH_TABLE` is gone.\n")
    proc = run_tool(str(page))
    assert proc.returncode == 1
    problems = proc.stderr.strip().splitlines()
    assert len(problems) == 1
    assert problems[0].endswith(
        ":3: unresolved Python reference "
        "'repro.simulator.batch.NO_SUCH_TABLE'")


def test_missing_module_is_unresolved(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("See `repro.no_such_module.helper`.\n")
    proc = run_tool(str(page))
    assert proc.returncode == 1
    assert "'repro.no_such_module.helper'" in proc.stderr
