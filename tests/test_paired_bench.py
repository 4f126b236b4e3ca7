"""``tools/paired_bench.py`` names each tree it compares and prints its
verdicts."""

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


def test_source_size_counts_the_package_sources(tmp_path):
    write(tmp_path / "src" / "alcsim" / "a.py", "x = 1\ny = 2\n")
    write(tmp_path / "src" / "alcsim" / "sub" / "b.py", "z = 3")
    write(tmp_path / "src" / "alcsim" / "notes.txt", "not source\n")
    write(tmp_path / "src" / "other.py", "outside the package\n")
    write(tmp_path / "tools" / "t.py", "outside src\n")
    assert paired_bench.source_size(tmp_path) == {"lines": 2, "bytes": 17}


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


def test_edited_clone_is_named_by_its_commit_and_sources(tmp_path):
    write(tmp_path / "src" / "a.py", "x = 1\n")
    write(tmp_path / "README.md", "notes\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "a"]):
        subprocess.run(git + args, cwd=tmp_path, check=True)
    head = paired_bench.tree_of(tmp_path)
    write(tmp_path / "README.md", "edited outside src\n")
    assert paired_bench.tree_of(tmp_path) == head
    write(tmp_path / "src" / "a.py", "x = 2\n")
    edited = paired_bench.tree_of(tmp_path)
    assert edited == f"{head}+{paired_bench.sources_digest(tmp_path)}"
    write(tmp_path / "src" / "b.py", "y = 1\n")       # untracked
    assert paired_bench.tree_of(tmp_path) not in (head, edited)
    (tmp_path / "src" / "b.py").unlink()
    write(tmp_path / "src" / "a.py", "x = 1\n")
    assert paired_bench.tree_of(tmp_path) == head


def test_verdicts_print_one_line_per_metric():
    ops = {"name": "ops_per_s", "unit": "1/s", "better": "higher",
           "bound": 0.25}
    rss = {"name": "peak_rss_mb", "unit": "MiB", "better": "lower",
           "bound": 0.1}
    pairs = [(100, 130, 20.0, 20.0), (110, 140, 20.1, 20.0),
             (105, 135, 20.0, 20.1), (95, 150, 19.9, 20.0)]
    runs = [{side: {"metrics": {"ops_per_s": ops_s, "peak_rss_mb": rss_mb}}
             for side, ops_s, rss_mb in (("parent", p, pr), ("change", c, cr))}
            for p, c, pr, cr in pairs]
    report = {"pairs": len(runs), "metrics": {
        m["name"]: paired_bench.summarise(runs, m) for m in (ops, rss)}}
    assert paired_bench.verdict_lines(report) == [
        "ops_per_s: parent 102.5 change 137.5 1/s (1.341x), change won 4 of "
        "4 pairs; better_beyond_spread",
        "peak_rss_mb: parent 20 change 20 MiB (1.000x), change won 1 of 4 "
        "pairs; none",
    ]
