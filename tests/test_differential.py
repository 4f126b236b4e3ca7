"""``tools/differential.py`` covers every case kind on every kind of KB."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_transcript_covers_every_case():
    # a subprocess, as the script swaps the imported alcsim for --src's
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "differential.py"),
         "--src", str(ROOT), "--seeds", "2"],
        capture_output=True, text=True, check=True, timeout=300).stdout
    fields = [line.split(" | ") for line in out.splitlines()]
    assert {len(f) for f in fields} == {5}
    assert {f[0] for f in fields} == {
        "family", "fathers", "seed 0", "seed 0 atleast", "seed 1",
        "seed 1 atleast"}
    assert {f[1].split()[0] for f in fields} == {
        "parse_kb", "parse_concept", "consistent", "sat", "subsumes", "check",
        "retrieve", "bounds", "extension", "matrix", "sim_pair", "abox_depth",
        "msc_approx", "msc_extension", "cluster"}
    assert {f[1] for f in fields if f[1].startswith("parse_")} == {
        "parse_kb", "parse_concept", "parse_concept mutation",
        *(f"parse_kb mutation {k}" for k in range(8))}
    parses = [f[3] for f in fields if f[1].startswith("parse_")]
    assert any(answer.startswith("ParseError ") for answer in parses)
    assert not any(f[3].startswith("ParseError ") for f in fields
                   if f[1] in ("parse_kb", "parse_concept"))
    assert {f[1] for f in fields if f[1].startswith("extension")} == {
        "extension", "extension canonical"}
    assert {f[1] for f in fields if f[1].startswith("retrieve")} == {
        "retrieve", "retrieve canonical"}
    assert {f[1] for f in fields if f[1].startswith("sim_pair")} == {
        f"sim_pair {backend} {x}-{y}" for backend in ("canonical", "entail")
        for x in ("concept", "individual") for y in ("concept", "individual")}
    assert {f[1] for f in fields
            if f[1].startswith(("matrix", "cluster"))} == {
        "matrix entail 1", "matrix entail auto", "matrix canonical auto",
        "cluster single", "cluster complete", "cluster average"}
    assert {f[1].split()[-1] for f in fields
            if f[1].startswith("msc_")} == {"0", "1", "2", "auto"}
    assert any(f[3].startswith("UnsupportedNegation: ") for f in fields)
