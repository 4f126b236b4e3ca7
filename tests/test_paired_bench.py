"""``tools/paired_bench.py`` names each tree it compares."""

import importlib.util
import re
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "paired_bench", ROOT / "tools" / "paired_bench.py")
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)


def write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_tree_without_git_is_named_by_its_sources(tmp_path):
    write(tmp_path / "src" / "pkg" / "a.py", "x = 1\n")
    write(tmp_path / "src" / "pkg" / "notes.txt", "not source\n")
    first = paired_bench.tree_of(tmp_path)
    assert re.fullmatch(r"src-sha256:[0-9a-f]{16}", first)
    write(tmp_path / "src" / "pkg" / "notes.txt", "changed\n")
    write(tmp_path / "README.md", "outside src\n")
    assert paired_bench.tree_of(tmp_path) == first
    (tmp_path / "src" / "pkg" / "a.py").rename(tmp_path / "src" / "pkg" / "b.py")
    renamed = paired_bench.tree_of(tmp_path)
    assert renamed != first
    write(tmp_path / "src" / "pkg" / "b.py", "x = 2\n")
    assert paired_bench.tree_of(tmp_path) not in (first, renamed)


def test_git_clone_root_is_named_by_its_commit(tmp_path):
    write(tmp_path / "src" / "a.py", "x = 1\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "a"]):
        subprocess.run(git + args, cwd=tmp_path, check=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path,
                          capture_output=True, text=True,
                          check=True).stdout.strip()
    assert paired_bench.tree_of(tmp_path) == head
    # a directory inside a clone is not a checkout of its own
    assert paired_bench.tree_of(tmp_path / "src").startswith("src-sha256:")
