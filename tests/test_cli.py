import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from parikhbound import (cli, family_instance, parikh_equivalent_bounded,
                         parse_grammar, pdn_to_json)
from parikhbound.cli import main

ANBN_TEXT = "start S\nS -> a S b | a b\n"
ABSTAR_TEXT = "start T\nT -> a b T | eps\n"
A_PLUS_TEXT = "start A\nA -> a A | a\n"
B_PLUS_TEXT = "start B\nB -> b B | b\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def test_bound_command(files, capsys):
    path = files("g.txt", ANBN_TEXT)
    assert main(["bound", path, "--verify", "6"]) == 0
    out = capsys.readouterr().out
    assert out.strip()
    assert main(["--format", "json", "bound", path, "--verify", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_bound_json(files, capsys):
    path = files("g.txt", ANBN_TEXT)
    assert main(["--format", "json", "bound", path, "--subset"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "bounded" in payload and "subset_grammar" in payload


def test_bound_subset_builds_subset_once(files, capsys, monkeypatch):
    calls = []
    original = cli.bounded_subset

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "bounded_subset", counting)
    path = files("g.txt", ANBN_TEXT)
    assert main(["--format", "json", "bound", path, "--subset"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["subset_grammar"].strip()
    assert len(calls) == 1


def test_bound_subset_does_not_depend_on_earlier_calls(files, capsys):
    # the subset grammar's helper variables (S#i, bin#i) are numbered within
    # each construction, so work done in between renames none of them
    path = files("g.txt", ANBN_TEXT)
    assert main(["bound", path, "--subset"]) == 0
    first = capsys.readouterr().out
    assert "#" in first
    parikh_equivalent_bounded(parse_grammar(
        "start S\nS -> a S b | A A\nA -> a A b | c\n"))
    assert main(["bound", path, "--subset"]) == 0
    assert capsys.readouterr().out == first


def test_output_does_not_depend_on_the_hash_seed(files):
    # the bounded language of X0 -> X2 X0 | a a a; X2 -> a b a | b X2 once
    # followed the iteration order of frozensets; the intersection pair
    # needs a refinement round, so its verdict goes through B
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = [
        ["--format", "json", "bound",
         files("g14.txt", "start X0\nX0 -> X2 X0 | a a a\n"
                          "X2 -> a b a | b X2\n")],
        ["--format", "json", "check-intersection",
         files("r1.txt", "start X0\nX0 -> eps | b a X1\nX1 -> b | b b a\n"),
         files("r2.txt", "start X0\nX0 -> X0 a | a X0 | b b\n")],
    ]
    for args in runs:
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-m", "parikhbound.cli",
                                  *args], env=env, capture_output=True,
                                 timeout=120)
            assert run.stdout and not run.stderr, run.stderr
            outs.append(run.stdout)
        assert outs[0] == outs[1], args[2]


def test_bound_emit_proof_lists_the_start_variables_chain(files, capsys):
    path = files("g.txt", "start S\nS -> a S b | a b | A A\nA -> a A b | c\n")
    assert main(["--format", "json", "bound", path, "--emit-proof"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["levels"]) >= 2
    assert all(list(level["bounded"]) == ["S"] for level in payload["levels"])
    assert payload["levels"][-1] == {"level": "final",
                                     "bounded": {"S": payload["bounded"]}}
    assert main(["bound", path, "--emit-proof"]) == 0
    levels = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("# level ")]
    assert len(levels) == len(payload["levels"])
    assert all(line.split(": ", 1)[1].startswith('{"S": ') for line in levels)


def test_bound_emit_proof_records_the_final_level_at_depth_zero(files, capsys):
    # S is not recursive, so B is the right-hand sides and no level is
    # substituted
    path = files("g.txt", "start S\nS -> a b | b\n")
    assert main(["--format", "json", "bound", path, "--emit-proof"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bounded"] == ["a b", "b"]
    assert payload["levels"] == [{"level": "final",
                                  "bounded": {"S": ["a b", "b"]}}]
    assert main(["bound", path, "--emit-proof"]) == 0
    assert '# level final: {"S": ["a b", "b"]}' \
        in capsys.readouterr().out.splitlines()


def test_bound_verify_failure_still_prints_the_bounded_language(
        files, capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_parikh_property", lambda *args: False)
    path = files("g.txt", ANBN_TEXT)
    assert main(["bound", path, "--verify", "6"]) == 1
    out = capsys.readouterr().out
    assert "a b" in out.splitlines()
    assert "# verified against enumeration to length 6: False" in out
    assert main(["--format", "json", "bound", path, "--verify", "6"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is False and payload["bounded"]
    assert main(["--format", "json", "bound", path]) == 0
    assert "verified" not in json.loads(capsys.readouterr().out)


def test_parikh_command(files, capsys):
    path = files("g.txt", ANBN_TEXT)
    assert main(["--format", "json", "parikh", path, "--verify", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alphabet"] == ["a", "b"]
    assert payload["verified_to_length"] == 6
    assert payload["verified"] is True
    assert all("constant" in c and "witness" in c for c in payload["components"])


def test_parikh_verify_failure_still_prints_the_image(files, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(cli, "_image_covers_words", lambda *args: False)
    path = files("g.txt", ANBN_TEXT)
    assert main(["parikh", path, "--verify", "6"]) == 1
    out = capsys.readouterr().out
    assert "alphabet: a b" in out
    assert "# verified against enumeration to length 6: False" in out
    assert main(["--format", "json", "parikh", path, "--verify", "6"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is False and payload["components"]


def test_check_intersection_witness(files, capsys):
    g1 = files("g1.txt", ANBN_TEXT)
    g2 = files("g2.txt", ABSTAR_TEXT)
    assert main(["--format", "json", "check-intersection", g1, g2]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "nonempty"
    assert payload["witness"] == "a b"


def test_check_intersection_empty(files, capsys):
    g1 = files("g1.txt", A_PLUS_TEXT)
    g2 = files("g2.txt", B_PLUS_TEXT)
    assert main(["--format", "json", "check-intersection", g1, g2]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "empty"


def test_check_intersection_three_grammars(files, capsys):
    g1 = files("g1.txt", ANBN_TEXT)
    g2 = files("g2.txt", ABSTAR_TEXT)
    g3 = files("g3.txt", "start X\nX -> X X | a b\n")
    assert main(["--format", "json", "check-intersection", g1, g2, g3]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"status": "nonempty", "rounds": 1, "witness": "a b"}
    g4 = files("g4.txt", A_PLUS_TEXT)
    g5 = files("g5.txt", B_PLUS_TEXT)
    assert main(["check-intersection", g1, g4, g5]) == 1
    assert capsys.readouterr().out == "empty after 1 round(s)\n"


def test_check_intersection_bounded_mode(files, capsys):
    g1 = files("g1.txt", ANBN_TEXT)
    g2 = files("g2.txt", ABSTAR_TEXT)
    b = files("b.txt", "a\nb\n")
    assert main(["check-intersection", g1, g2, "--bounded", b]) == 0
    assert "a b" in capsys.readouterr().out
    b2 = files("b2.txt", "b\na\n")
    assert main(["check-intersection", g1, g2, "--bounded", b2]) == 1


def test_reach_pdn_family(capsys):
    assert main(["--format", "json", "reach-pdn", "--family", "1",
                 "--oracle-depth", "12"]) == 0
    assert json.loads(capsys.readouterr().out)["oracle_reachable"] is True


def test_reach_pdn_family_through_reach(capsys):
    # the README's example, without the oracle: a schedule that switches
    # to thread 2
    assert main(["reach-pdn", "--family", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("reachable; schedule: ") and ",2)" in out
    assert main(["--format", "json", "reach-pdn", "--family", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "nonempty" and ",2)" in payload["schedule"]


def test_reach_pdn_file(files, capsys):
    pdn, init, target = family_instance(1)
    path = files("net.json", pdn_to_json(pdn, init, target))
    assert main(["reach-pdn", path, "--oracle-depth", "12"]) == 0


def test_reach_pdn_requires_input(capsys):
    assert main(["reach-pdn"]) == 2
    assert "error" in capsys.readouterr().err


def test_oracle_verify(files, capsys):
    path = files("g.txt", ANBN_TEXT)
    assert main(["oracle-verify", path, "--length", "6"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_negative_enumeration_length_exits_2(files, capsys, monkeypatch):
    # no word is that short; the parser rejects the length before any
    # construction runs, rather than reporting it as verified
    def never(*args, **kwargs):
        raise AssertionError("the construction ran before the length check")
    monkeypatch.setattr(cli, "parikh_equivalent_bounded", never)
    monkeypatch.setattr(cli, "parikh_image", never)
    path = files("pal.g", "P -> a P a | b P b | eps\n")
    assert main(["bound", path, "--verify", "-2"]) == 2
    assert main(["bound", path, "--subset", "--verify", "-3"]) == 2
    assert main(["parikh", path, "--verify", "-1"]) == 2
    assert main(["oracle-verify", path, "--length", "-1"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.count("must be an integer >= 0") == 4


def test_negative_rounds_and_depth_exit_2(files, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the input was read before the count check")
    monkeypatch.setattr(cli, "family_instance", never)
    monkeypatch.setattr(cli, "_read", never)
    g = files("g.txt", ANBN_TEXT)
    assert main(["reach-pdn", "--family", "1", "--max-rounds", "-3"]) == 2
    assert main(["reach-pdn", "--family", "1", "--oracle-depth", "-1"]) == 2
    assert main(["check-intersection", g, g, "--max-rounds", "-1"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.count("must be an integer >= 0") == 3


def test_exhausted_budget_exits_2(files, capsys):
    # (a|b)* has 2^19 words of length 19, over the enumeration budget
    path = files("g.txt", "S -> a S | b S | eps\n")
    assert main(["parikh", path, "--verify", "19"]) == 2
    assert "budget: enumeration exceeded 500000 words" in capsys.readouterr().err


def test_bad_input_exits_2(files, capsys):
    assert main(["parikh", "/nonexistent/file"]) == 2
    bad = files("bad.txt", "no productions here")
    assert main(["parikh", bad]) == 2
    assert main(["parikh", files("empty-alt.txt", "S -> a S |\n")]) == 2
    assert "empty alternative" in capsys.readouterr().err
    for k in ("0", "-1"):
        assert main(["reach-pdn", "--family", k]) == 2
        assert "family instances require k >= 1" in capsys.readouterr().err
    net = json.loads(pdn_to_json(*family_instance(1)))
    net["globals"] = "".join(net["globals"])
    assert main(["reach-pdn", files("net.json", json.dumps(net))]) == 2
    assert "must be lists" in capsys.readouterr().err
    # a directory and a file that is not UTF-8 are input errors, not "empty"
    assert main(["bound", os.path.dirname(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read")
    latin1 = Path(bad).with_name("latin1.txt")
    latin1.write_bytes("S -> \u00e9\n".encode("latin-1"))
    assert main(["bound", str(latin1)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read")
    # a configuration naming an undeclared stack symbol or global
    net = json.loads(pdn_to_json(*family_instance(1)))
    init, target = net["init"], net["target"]
    stacks = [s + ["Q"] for s in init["stacks"]]
    for field, value in (("init", {**init, "global": "gX"}),
                         ("target", {**target, "global": "g9"}),
                         ("init", {**init, "stacks": stacks})):
        bad_net = {**net, field: value}
        assert main(["reach-pdn",
                     files("bad-net.json", json.dumps(bad_net))]) == 2
        assert "undeclared" in capsys.readouterr().err
    # a network that declares the encoder's idle global or bottom marker
    idle_global = {"globals": ["g0", "#idle"], "stack_alphabet": ["A", "B"],
                   "threads": [[["#idle", "A", "g0", []]],
                               [["g0", "B", "g0", []]]],
                   "init": {"global": "g0", "stacks": [["A"], ["B"]]},
                   "target": {"global": "g0", "stacks": [[], []]}}
    bottom_symbol = {"globals": ["g0", "g1"], "stack_alphabet": ["#bot"],
                     "threads": [[["g0", "#bot", "g1", []]]],
                     "init": {"global": "g0", "stacks": [[]]},
                     "target": {"global": "g1", "stacks": [[]]}}
    for bad_net in (idle_global, bottom_symbol):
        assert main(["reach-pdn",
                     files("bad-net.json", json.dumps(bad_net))]) == 2
        assert "reserved" in capsys.readouterr().err
