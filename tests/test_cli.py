import argparse
import gc
import io
import json
import subprocess
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alcsim
from alcsim import fixture_text
from alcsim.cli import build_argparser, main


@pytest.fixture(scope="module")
def family_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("kbs") / "family.dlkb"
    path.write_text(fixture_text("family"))
    return str(path)


@pytest.fixture(scope="module")
def fathers_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("kbs") / "fathers.dlkb"
    path.write_text(fixture_text("fathers"))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_family(self, capsys, family_path):
        code, out, _ = run(capsys, "check", family_path)
        assert code == 0
        assert out.strip() == "consistent, 10 definitions, 40 assertions, 11 individuals"

    def test_cycle_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.dlkb"
        bad.write_text("A := A and B\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "cyclic" in err

    def test_empty_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.dlkb"
        empty.write_text("")
        code, out, _ = run(capsys, "check", str(empty))
        assert code == 0
        assert "0 definitions" in out

    def test_inconsistent_is_exit_1(self, capsys, tmp_path):
        kb = tmp_path / "clash.dlkb"
        kb.write_text("D := not C\nC(a)\nD(a)\n")
        code, out, _ = run(capsys, "check", str(kb))
        assert code == 1
        assert out.startswith("inconsistent")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/no/such/file.dlkb")
        assert code == 2
        assert "cannot read" in err

    def test_json(self, capsys, family_path):
        code, out, _ = run(capsys, "check", family_path, "--format", "json")
        data = json.loads(out)
        assert data == {"consistent": True, "acyclic": True, "definitions": 10,
                        "assertions": 40, "individuals": 11}


def definition_chain(n: int) -> str:
    """``Ai := A(i+1) and B`` for i < n: name A0 unfolds 2n + 1 levels deep."""
    lines = [f"A{i} := A{i + 1} and B\n" for i in range(n)]
    return "".join(lines) + f"B(x)\nA{n}(x)\nr(x, y)\n"


class TestDefinitionChains:
    # chains of definitions nest deeper than any one concept; past
    # model.MAX_UNFOLDED_DEPTH they are a parse error, never a RecursionError

    @pytest.mark.parametrize("n, argv", [
        (1500, ["check"]),
        (600, ["retrieve", "A0"]),
        (600, ["retrieve", "A0", "--backend", "entail"]),
        (600, ["sim", "ind:x", "ind:y"]),
        (600, ["sim", "ind:x", "ind:y", "--backend", "entail"]),
    ])
    def test_too_deep_is_one_error_line(self, capsys, tmp_path, n, argv):
        kb = tmp_path / "chain.dlkb"
        kb.write_text(definition_chain(n))
        code, out, err = run(capsys, argv[0], str(kb), *argv[1:])
        assert (code, out) == (2, "")
        # A(n-200) is the first name past the limit on the way up the chain
        assert err == (f"error: {kb}:{n - 199}:1: definition of A{n - 200} "
                       "unfolds 401 levels deep, past the limit of 400\n")

    @pytest.mark.parametrize("argv, answer", [
        (["retrieve", "A0"], "x\n"),
        (["retrieve", "A0", "--backend", "entail"], "x\n"),
        (["sim", "ind:x", "A0"], "value: 1.0000\next: (1, 1, 1)\n"
         "backend: canonical\nextension_computations: 3\n"
         "msc_computations: 1\nmsc_depth: 1\n"),
    ])
    def test_chain_under_the_limit_answers(self, capsys, tmp_path, argv,
                                           answer):
        kb = tmp_path / "chain.dlkb"
        kb.write_text(definition_chain(199))
        code, out, _ = run(capsys, argv[0], str(kb), *argv[1:])
        assert (code, out) == (0, answer)


class TestSubsumes:
    def test_holds(self, capsys, fathers_path):
        code, out, _ = run(capsys, "subsumes", fathers_path, "Father", "Parent")
        assert code == 0
        assert "is subsumed by" in out

    def test_does_not_hold(self, capsys, fathers_path):
        code, out, _ = run(capsys, "subsumes", fathers_path, "Parent", "Father")
        assert code == 1
        assert "is not subsumed by" in out

    def test_bottom_below_anything(self, capsys, fathers_path):
        code, _, _ = run(capsys, "subsumes", fathers_path, "Bottom", "Male and not Male")
        assert code == 0

    def test_parse_error(self, capsys, fathers_path):
        code, _, err = run(capsys, "subsumes", fathers_path, "Father and", "Parent")
        assert code == 2
        assert "bad concept" in err


class TestRetrieve:
    def test_father(self, capsys, family_path):
        code, out, _ = run(capsys, "retrieve", family_path, "Father")
        assert code == 0
        assert out.split() == ["Antonio", "AntonioB", "Leonardo"]

    def test_bottom_empty(self, capsys, family_path):
        code, out, _ = run(capsys, "retrieve", family_path, "Bottom")
        assert code == 0
        assert out == ""

    def test_grandparent_json(self, capsys, family_path):
        code, out, _ = run(capsys, "retrieve", family_path, "Grandparent",
                           "--format", "json")
        data = json.loads(out)
        assert data["members"] == ["Antonio", "AntonioB"]
        assert data["backend"] == "canonical"

    def test_entail_backend(self, capsys, fathers_path):
        code, out, _ = run(capsys, "retrieve", fathers_path, "Father",
                           "--backend", "entail")
        assert code == 0
        assert out.split() == ["Leonardo"]

    def test_entail_answers_where_the_witness_rules_out_a_raising_check(
            self, capsys, tmp_path):
        # checking y needs the negated at-least, but y has no r-successor
        # in the witness model, so the engine never checks it
        kb = tmp_path / "atleast.dlkb"
        kb.write_text("A := atleast 2 r\nA(x)\nr(x, y)\n")
        code, out, err = run(capsys, "retrieve", str(kb), "A",
                             "--backend", "entail", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["members"] == ["x"]

    def test_entail_search_that_raises_is_exit_2(self, capsys, family_path):
        # the witness keeps Claudia, among others, in Sibling, and the check
        # on her needs the negated at-least of Sibling's body
        code, out, err = run(capsys, "retrieve", family_path, "Sibling",
                             "--backend", "entail")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("error: ")

    def test_non_utf8_file_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.dlkb"
        bad.write_bytes(b"Woman(a)\n\xff\n")
        code, out, err = run(capsys, "retrieve", str(bad), "Woman")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "not UTF-8" in err

    def test_deep_nesting_is_exit_2_without_traceback(self, capsys,
                                                      family_path):
        # past the parser's nesting limit: a ParseError with its position
        concept = "(" * 3000 + "Woman" + ")" * 3000
        code, out, err = run(capsys, "retrieve", family_path, concept)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: bad concept '((((")
        assert err.endswith("': 1:101: concept nested deeper than 100 levels\n")

    def test_non_ascii_name_is_exit_2(self, capsys, family_path, tmp_path):
        code, out, err = run(capsys, "retrieve", family_path, "Ωmega")
        assert (code, out) == (2, "")
        assert err == ("error: bad concept 'Ωmega': "
                       "1:1: unexpected character 'Ω'\n")
        kb = tmp_path / "omega.dlkb"
        kb.write_text("Woman(ann)\nΩmega(ann)\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(kb))
        assert (code, out) == (2, "")
        assert err == f"error: {kb}:2:1: unexpected character 'Ω'\n"

    def test_cache_flag_is_gone(self, capsys, family_path):
        with pytest.raises(SystemExit) as exc:
            main(["retrieve", family_path, "Woman", "--cache"])
        assert exc.value.code == 2
        assert "--cache" in capsys.readouterr().err


class TestOptionsPerCommand:
    """A subcommand offers only the options it reads; any other is a usage
    error, exit 2."""

    @pytest.mark.parametrize("argv", [
        ["check", "--backend", "entail"],
        ["check", "--backend", "canonical"],
        ["subsumes", "Father", "Parent", "--backend", "entail"],
        ["subsumes", "Father", "Parent", "--backend", "canonical"],
        ["check", "--format", "csv"],
        ["subsumes", "Father", "Parent", "--format", "csv"],
        ["retrieve", "Father", "--format", "csv"],
        ["msc", "Vito", "--format", "csv"],
        ["sim", "Father", "Parent", "--format", "csv"],
        ["cluster", "Father", "Parent", "--format", "csv"],
    ])
    def test_unread_option_is_exit_2(self, capsys, fathers_path, argv):
        argv.insert(1, fathers_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_tableau_commands_run_without_backend(self, capsys, fathers_path):
        assert run(capsys, "check", fathers_path, "--format", "json")[0] == 0
        assert run(capsys, "subsumes", fathers_path, "Father", "Parent")[0] == 0


# Each KB subcommand with the formats, backends and MSC depths it offers,
# and its positional arguments on each bundled fixture.
SWEEP = [
    # command, formats, backends, depths
    ("check", ("text", "json"), (), ()),
    ("subsumes", ("text", "json"), (), ()),
    ("retrieve", ("text", "json"), ("canonical", "entail"), ()),
    ("msc", ("text", "json"), ("canonical", "entail"), ("1",)),
    ("sim", ("text", "json"), ("canonical", "entail"), ("1",)),
    ("matrix", ("text", "json", "csv"), ("canonical", "entail"), ("1",)),
    ("cluster", ("text", "json"), ("canonical", "entail"), ("1",)),
]
SWEEP_ARGS = {
    "family": {"check": [], "subsumes": ["Mother", "Woman"],
               "retrieve": ["Woman"], "msc": ["Claudia"],
               "sim": ["Claudia", "Woman"],
               "matrix": ["Woman", "Father", "Claudia"],
               "cluster": ["Woman", "Father", "Claudia"]},
    "fathers": {"check": [], "subsumes": ["Father", "Parent"],
                "retrieve": ["Father"], "msc": ["Vito"],
                "sim": ["Vito", "Male"],
                "matrix": ["Father", "Parent", "Vito"],
                "cluster": ["Father", "Parent", "Vito"]},
}


def sweep_requests():
    for fixture, args in SWEEP_ARGS.items():
        for command, formats, backends, depths in SWEEP:
            for fmt in formats:
                for backend in backends or (None,):
                    for depth in (None, *depths):
                        argv = [command, *args[command], "--format", fmt]
                        if backend:
                            argv += ["--backend", backend]
                        if depth:
                            argv += ["--depth", depth]
                        yield pytest.param(fixture, argv,
                                           id=f"{fixture}-{'-'.join(argv)}")


class TestOptionSweep:
    """Every option a subcommand offers reaches a handler that reads it."""

    @pytest.mark.parametrize("fixture, argv", sweep_requests())
    def test_answers_or_one_error(self, capsys, family_path, fathers_path,
                                  fixture, argv):
        path = {"family": family_path, "fathers": fathers_path}[fixture]
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert code in (0, 1, 2)
        assert "internal error" not in err
        if code != 2 and "json" in argv:
            json.loads(out)


def garbage_requests():
    """Every subcommand on each fixture and each backend it takes, with
    ``sim`` on two concepts and on two individuals."""
    pairs = {"family": (["Woman", "Father"], ["Claudia", "Tiziana"]),
             "fathers": (["Father", "Parent"], ["Vito", "Leonardo"])}
    for fixture, args in SWEEP_ARGS.items():
        for command, _, backends, _ in SWEEP:
            for operands in (pairs[fixture] if command == "sim"
                             else [args[command]]):
                for backend in backends or (None,):
                    argv = [command, "{kb}", *operands]
                    if backend:
                        argv += ["--backend", backend]
                    yield pytest.param(
                        fixture, argv,
                        id="-".join([fixture, command, *argv[2:]]))
    yield pytest.param(None, ["gen", "--seed", "3"], id="gen")


class TestNoCyclicGarbage:
    """A request frees all it allocates by reference counting: it leaves
    nothing for the cyclic collector to find.  Most entail requests on the
    family KB end in exit 2, at a negated at-least; that path is covered
    too."""

    @pytest.mark.parametrize("fixture, argv", garbage_requests())
    def test_request_leaves_no_cycle(self, capsys, family_path, fathers_path,
                                     fixture, argv):
        path = {"family": family_path, "fathers": fathers_path}.get(fixture)
        argv = [path if arg == "{kb}" else arg for arg in argv]
        code = run(capsys, *argv)[0]   # warm-up: caches, lazy imports
        gc.collect()
        gc.disable()
        try:
            assert run(capsys, *argv)[0] == code
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_no_function_calls_itself_through_a_closure(self):
        # a nested function that calls itself holds its own cell, a cycle
        # that outlives the call; recursive helpers live at module level
        package = Path(alcsim.__file__).parent
        self_referent = []
        for path in sorted(package.glob("*.py")):
            stack = [compile(path.read_text(encoding="utf-8"), str(path),
                             "exec")]
            while stack:
                code = stack.pop()
                if code.co_name in code.co_freevars:
                    self_referent.append(f"{path.stem}.{code.co_name}")
                stack += [const for const in code.co_consts
                          if isinstance(const, types.CodeType)]
        assert self_referent == []


class TestModuleEntryPoint:
    @pytest.mark.parametrize("sub, sup, code", [
        ("Father", "Parent", 0),
        ("Parent", "Father", 1),
    ])
    def test_exit_code_reaches_the_shell(self, fathers_path, sub, sup, code):
        src = Path(alcsim.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "alcsim.cli", "subsumes", fathers_path,
             sub, sup], cwd=src, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (code, "")


class TestDeepChain:
    """``msc`` and ``sim`` on a 1,000-individual ``r`` chain, run as a
    shell runs them, with the interpreter's whole stack: the roll-up
    recurses once per level and answers at depth 980 (995 still raises
    RecursionError); one that recursed twice per level, or a concept made
    on read by recursion, would not."""

    @pytest.fixture(scope="class")
    def chain_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("kbs") / "chain.dlkb"
        path.write_text("".join(f"r(i{k}, i{k + 1})\n" for k in range(999)))
        return str(path)

    @staticmethod
    def shell(*argv):
        src = Path(alcsim.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-m", "alcsim.cli", *argv],
                              cwd=src, capture_output=True, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout.splitlines()

    def test_msc_at_depth_980(self, chain_path):
        header, concept, extension = self.shell("msc", chain_path, "i0",
                                                "--depth", "980")
        assert header == "MSC(i0) at depth 980:"
        assert concept == "  " + "exists r." * 980 + "Top"
        assert extension == "extension (20): " + ", ".join(
            sorted(f"i{k}" for k in range(20)))

    def test_sim_at_depth_900(self, chain_path):
        out = self.shell("sim", chain_path, "i0", "i1", "--depth", "900")
        assert out[:2] == ["value: 1.0000", "ext: (100, 100, 100)"]
        assert "msc_depth: 900" in out


class TestArgparserReuse:
    @pytest.fixture
    def parsers_built(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_argparser.cache_clear()
        return built

    def test_built_once_per_process(self, capsys, family_path, parsers_built):
        for _ in range(20):
            code, out, _ = run(capsys, "retrieve", family_path, "Father")
            assert (code, out.split()) == (0, ["Antonio", "AntonioB", "Leonardo"])
        assert len(parsers_built) == 9  # the root and its 8 subcommands

    def test_import_builds_no_parser(self):
        program = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(parser, *args, **kwargs):\n"
            "    built.append(parser)\n"
            "    init(parser, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import alcsim.cli\n"
            "print(len(built))\n")
        src = Path(alcsim.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", program], cwd=src,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "0\n")

    def test_requests_do_not_leak_into_each_other(self, capsys, family_path):
        code, first, _ = run(capsys, "sim", family_path, "Claudia", "Tiziana",
                             "--depth", "2", "--format", "json")
        assert code == 0
        assert json.loads(first)["msc_depth"] == 2
        code, out, _ = run(capsys, "sim", family_path, "Claudia", "Tiziana")
        assert code == 0
        assert "msc_depth: 10" in out.splitlines()  # auto, not the last 2
        with pytest.raises(SystemExit) as exc:
            main(["sim", family_path, "Claudia", "Tiziana", "--depth", "-1"])
        assert exc.value.code == 2
        assert "depth must be non-negative" in capsys.readouterr().err
        again = run(capsys, "sim", family_path, "Claudia", "Tiziana",
                    "--depth", "2", "--format", "json")
        assert again == (0, first, "")


class TestMsc:
    def test_claudia_depth_zero(self, capsys, family_path):
        code, out, _ = run(capsys, "msc", family_path, "Claudia", "--depth", "0")
        assert code == 0
        for name in ("Woman", "Sibling", "Child", "Human", "Female"):
            assert name in out

    def test_extension_contains_the_individual(self, capsys, family_path):
        code, out, _ = run(capsys, "msc", family_path, "Vito", "--depth", "1",
                           "--format", "json")
        data = json.loads(out)
        assert "Vito" in data["members"]

    def test_fresh_individual_is_top(self, capsys, family_path):
        code, out, _ = run(capsys, "msc", family_path, "Nicola")
        assert code == 0
        assert "Top" in out

    def test_unknown_individual(self, capsys, family_path):
        code, _, err = run(capsys, "msc", family_path, "Nobody")
        assert code == 2
        assert "unknown individual" in err


class TestSim:
    def test_grandparent_father_text(self, capsys, family_path):
        code, out, _ = run(capsys, "sim", family_path, "Grandparent", "Father")
        assert code == 0
        assert "value: 0.6667" in out
        assert "ext: (2, 3, 2)" in out
        assert "extension_computations: 3" in out

    def test_individuals(self, capsys, family_path):
        code, out, _ = run(capsys, "sim", family_path,
                           "ind:Claudia", "ind:Tiziana")
        assert code == 0
        assert "value: 0.5000" in out

    def test_self_similarity(self, capsys, family_path):
        code, out, _ = run(capsys, "sim", family_path,
                           "ind:Claudia", "ind:Claudia")
        assert code == 0
        assert "value: 1.0000" in out

    def test_concept_vs_bottom(self, capsys, family_path):
        code, out, _ = run(capsys, "sim", family_path, "Woman", "Bottom")
        assert code == 0
        assert "value: 0.0000" in out

    def test_bare_individual_names_resolve(self, capsys, family_path):
        code, out, _ = run(capsys, "sim", family_path, "Claudia", "Tiziana")
        assert code == 0
        assert "msc_computations: 2" in out

    def test_ambiguous_name_needs_prefix(self, capsys, tmp_path):
        path = tmp_path / "amb.dlkb"
        path.write_text("Woman(Woman)\n")
        code, _, err = run(capsys, "sim", str(path), "Woman", "Woman")
        assert code == 2
        assert "ind:" in err and "concept:" in err

    def test_json_report_fields(self, capsys, family_path):
        code, out, _ = run(capsys, "sim", family_path, "Grandparent", "Father",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == {
            "value": 2 / 3, "value_exact": "2/3", "ext_c": 2, "ext_d": 3,
            "ext_i": 2, "backend": "canonical", "extension_computations": 3,
            "msc_computations": 0, "msc_depth": None}


class TestMatrix:
    def test_csv(self, capsys, family_path):
        code, out, _ = run(capsys, "matrix", family_path,
                           "Grandparent", "Father", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",Grandparent,Father"
        assert lines[1].split(",")[1] == "1.0"
        assert lines[1].split(",")[2] == repr(2 / 3)

    def test_single_item(self, capsys, family_path):
        code, out, _ = run(capsys, "matrix", family_path, "Woman",
                           "--format", "json")
        data = json.loads(out)
        assert data["matrix"] == [[1.0]]

    def test_symmetric(self, capsys, family_path):
        code, out, _ = run(capsys, "matrix", family_path,
                           "Woman", "Mother", "Father", "--format", "json")
        matrix = json.loads(out)["matrix"]
        for i in range(3):
            for j in range(3):
                assert matrix[i][j] == matrix[j][i]


class TestCluster:
    def test_single_item(self, capsys, family_path):
        code, out, _ = run(capsys, "cluster", family_path, "Woman",
                           "--format", "json")
        data = json.loads(out)
        assert data["leaves"] == ["Woman"]
        assert data["merges"] == []

    def test_equal_extensions_merge_first_at_one(self, capsys, family_path):
        code, out, _ = run(capsys, "cluster", family_path,
                           "Father", "Man", "Woman", "--format", "json")
        data = json.loads(out)
        assert data["merges"][0][2] == 1.0

    def test_text_output_has_dendrogram(self, capsys, family_path):
        code, out, _ = run(capsys, "cluster", family_path, "Woman", "Mother")
        assert code == 0
        assert "merge" in out
        assert "Woman" in out


class TestGen:
    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen"])

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "gen", "--seed", "3")
        _, second, _ = run(capsys, "gen", "--seed", "3")
        assert first == second

    def test_output_parses(self, capsys):
        from alcsim.parser import parse_kb
        _, out, _ = run(capsys, "gen", "--seed", "9", "--individuals", "4")
        kb = parse_kb(out)
        assert len(kb.individuals) <= 4

    @pytest.mark.parametrize("flags, message", [
        (["--individuals", "0"], "concept assertions need an individual"),
        (["--roles", "0"], "role assertions need an individual and a role"),
        (["--primitives", "0", "--defined", "0"],
         "concept assertions need an individual and a concept name"),
        (["--individuals", "-3"], "individuals must be between 0 and 8, got -3"),
        (["--individuals", "20"], "individuals must be between 0 and 8, got 20"),
        (["--role-assertions", "-1"], "role assertions must not be negative"),
    ])
    def test_shape_it_cannot_draw_is_one_error_line(self, capsys, flags,
                                                    message):
        code, out, err = run(capsys, "gen", "--seed", "1", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: " + message)
        assert err.count("\n") == 1

    def test_empty_pools_without_assertions(self, capsys):
        code, out, _ = run(capsys, "gen", "--seed", "1", "--individuals", "0",
                           "--roles", "0", "--concept-assertions", "0",
                           "--role-assertions", "0")
        assert code == 0
        kb = alcsim.parse_kb(out)
        assert not kb.individuals
        assert not kb.signature.role_names


# Pieces of KB files: statements, syntax, and bytes that are not UTF-8.
KB_PIECES = st.sampled_from([
    b"A", b"B", b"r", b"a", b"b", b"2", b"0", b" ", b"\n", b"\r\n", b"(", b")",
    b",", b".", b":=", b"<=", b"#", b"not ", b" and ", b" or ", b"exists ",
    b"forall ", b"atleast ", b"Top", b"Bottom", b"A(a)\n", b"r(a, b)\n",
    b"A := exists r.B\n", b"B <= not A\n", b"\xff", b"\xc3", b"\x00",
    b"\xef\xbb\xbf", "Ω".encode(),
])
# Statements of small, acyclic KBs, some of them inconsistent.
KB_STATEMENTS = st.sampled_from([
    b"A(a)\n", b"B(a)\n", b"C(b)\n", b"F(a)\n", b"r(a, b)\n", b"r(b, a)\n",
    b"A := exists r.B\n", b"B <= not F\n", b"C := A or forall r.B\n",
    b"D := atleast 2 r\n", b"E := not D\n",
])


class TestFrontDoor:
    """Whatever bytes a KB file holds, a request ends in an answer or one
    error line, never a crash."""

    @pytest.fixture(scope="class")
    def kb_file(self, tmp_path_factory):
        return tmp_path_factory.mktemp("front_door") / "any.dlkb"

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.one_of(st.binary(max_size=80),
                          st.lists(KB_PIECES, max_size=30).map(b"".join),
                          st.lists(KB_STATEMENTS, unique=True).map(b"".join)))
    def test_any_bytes_exit_0_1_or_2(self, kb_file, data):
        kb_file.write_bytes(data)
        for argv in (["check"], ["retrieve", "A"], ["sim", "A", "a"]):
            argv.insert(1, str(kb_file))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2)
            assert "internal error" not in err.getvalue()
            assert "Traceback" not in err.getvalue()
            # an error is one line; an answer writes nothing to stderr
            assert err.getvalue().count("\n") == (code == 2)
