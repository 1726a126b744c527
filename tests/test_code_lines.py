"""tests/code_lines.py counts the same lines from any directory, and refuses
a folder with no module in it."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "code_lines.py"


def run(*args, cwd):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True, cwd=cwd, timeout=60,
    )


def test_default_folder_is_found_from_any_directory(tmp_path):
    at_root = run(cwd=SCRIPT.parent.parent)
    elsewhere = run(cwd=tmp_path)
    assert at_root.returncode == elsewhere.returncode == 0
    assert at_root.stdout == elsewhere.stdout
    assert "cochain.py" in elsewhere.stdout
    total = int(elsewhere.stdout.splitlines()[-1].split()[-1].replace(",", ""))
    assert total > 1000


def test_folder_without_modules_exits_2(tmp_path):
    for folder in (tmp_path, tmp_path / "missing"):
        proc = run(str(folder), cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "no *.py file" in proc.stderr
