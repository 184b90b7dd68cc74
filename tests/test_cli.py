import json
import os
import socket
import subprocess
import sys
import time

import pytest

import rebac
from rebac.cli import main

from .conftest import REFERRAL_GRAPH, REFERRAL_POLICY

GUARD = json.dumps({"kind": "one-of", "privileges": ["view-record"]})


@pytest.fixture
def fixture_dir(tmp_path):
    (tmp_path / "graph.txt").write_text(REFERRAL_GRAPH, encoding="utf-8")
    (tmp_path / "policy.json").write_text(json.dumps(REFERRAL_POLICY), encoding="utf-8")
    return tmp_path


def system_args(fixture_dir):
    return ["--graph", str(fixture_dir / "graph.txt"),
            "--policy", str(fixture_dir / "policy.json")]


class TestCheck:
    def test_allow_exits_zero(self, fixture_dir, capsys):
        code = main(["check", *system_args(fixture_dir), "--resource", "rec1",
                     "--user", "d1", "--guard", GUARD])
        assert code == 0
        assert capsys.readouterr().out.strip() == "allow"

    def test_deny_exits_one(self, fixture_dir, capsys):
        code = main(["check", *system_args(fixture_dir), "--resource", "rec1",
                     "--user", "s1", "--guard", GUARD])
        assert code == 1
        assert capsys.readouterr().out.strip() == "deny"

    def test_trace_flag_prints_counters(self, fixture_dir, capsys):
        code = main(["check", *system_args(fixture_dir), "--mode", "rebac-only",
                     "--resource", "rec1", "--user", "d1", "--guard", GUARD,
                     "--trace"])
        assert code == 0
        out = capsys.readouterr().out
        trace = json.loads(out.split("\n", 1)[1])
        assert trace["formulas_evaluated"] >= 1
        assert trace["cache_hits"] <= trace["principals_considered"]

    def test_guard_from_file(self, fixture_dir, tmp_path, capsys):
        guard_file = tmp_path / "guard.json"
        guard_file.write_text(GUARD, encoding="utf-8")
        code = main(["check", *system_args(fixture_dir), "--resource", "rec1",
                     "--user", "d1", "--guard", f"@{guard_file}"])
        assert code == 0

    def test_unknown_vertex_reports_error(self, fixture_dir, capsys):
        code = main(["check", *system_args(fixture_dir), "--resource", "ghost",
                     "--user", "d1", "--guard", GUARD])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_usage_error_exits_two(self, fixture_dir):
        with pytest.raises(SystemExit) as exc:
            main(["check", *system_args(fixture_dir)])
        assert exc.value.code == 2


class TestMatchFilter:
    def test_match_lists_enabled_principals(self, fixture_dir, capsys):
        code = main(["match", *system_args(fixture_dir), "--resource", "rec1",
                     "--user", "d1"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["treating-clinician"]

    def test_filter_keeps_allowed_in_order(self, fixture_dir, capsys):
        code = main(["filter", *system_args(fixture_dir), "--user", "d1",
                     "--guard", GUARD, "--resources", "p2,rec1,p2"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["rec1"]


class TestAdmin:
    def test_exec_flips_check(self, fixture_dir, capsys):
        check_args = ["check", *system_args(fixture_dir), "--resource", "rec1",
                      "--user", "s1", "--guard", GUARD]
        assert main(check_args) == 1

        code = main(["admin", "list", *system_args(fixture_dir),
                     "--user", "d1", "--patient", "p1"])
        assert code == 0

        code = main(["admin", "exec", *system_args(fixture_dir),
                     "--action", "Referral", "--user", "d1", "--patient", "p1",
                     "--bind", "specialist=s1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "add referred-clinician p1 s1" in out

        assert main(check_args) == 0  # the graph file was updated in place

    def test_exec_save_elsewhere(self, fixture_dir, tmp_path):
        target = tmp_path / "updated.txt"
        code = main(["admin", "exec", *system_args(fixture_dir),
                     "--action", "Referral", "--user", "d1", "--patient", "p1",
                     "--bind", "specialist=s1", "--save", str(target)])
        assert code == 0
        assert "referred-clinician" in target.read_text()
        # original graph untouched
        assert "referred-clinician p1 s1" not in (fixture_dir / "graph.txt").read_text()

    def test_exec_not_enabled_exits_one(self, fixture_dir, capsys):
        code = main(["admin", "exec", *system_args(fixture_dir),
                     "--action", "Referral", "--user", "s1", "--patient", "p1",
                     "--bind", "specialist=s1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        # a failed action must not touch the stored graph
        assert "referred-clinician p1 s1" not in (fixture_dir / "graph.txt").read_text()

    def test_bad_bind_syntax_exits_two(self, fixture_dir, capsys):
        code = main(["admin", "exec", *system_args(fixture_dir),
                     "--action", "Referral", "--user", "d1", "--patient", "p1",
                     "--bind", "specialist"])
        assert code == 2


class TestSynthAndBench:
    ARGS = ["--seed", "6", "--scale", "0.1", "--nodes", "300", "--edges", "1500"]

    def test_synth_writes_deterministic_fixture(self, tmp_path, capsys):
        assert main(["synth", *self.ARGS, "--out", str(tmp_path / "a")]) == 0
        assert main(["synth", *self.ARGS, "--out", str(tmp_path / "b")]) == 0
        for name in ("graph.txt", "policy.json", "requests_one_of.json",
                     "requests_all_of.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_fmt_check_accepts_synth_policy(self, tmp_path, capsys):
        main(["synth", *self.ARGS, "--out", str(tmp_path)])
        capsys.readouterr()
        assert main(["fmt", "check", str(tmp_path / "policy.json")]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") == 10

    def test_fmt_check_flags_bad_formula(self, tmp_path, capsys):
        corpus = [{"id": "good", "vars": ["x"], "text": "@x x"},
                  {"id": "bad", "vars": ["x"], "text": "<gp> x"}]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus), encoding="utf-8")
        assert main(["fmt", "check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "ok good" in out and "error bad" in out

    def test_fmt_check_reports_deep_nesting_as_error(self, tmp_path, capsys):
        corpus = [{"id": "bangs", "vars": [], "text": "!" * 5000 + "true"},
                  {"id": "parens", "vars": [], "text": "(" * 3000 + "true" + ")" * 3000}]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus), encoding="utf-8")
        assert main(["fmt", "check", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["error bangs", "error parens"]

    def test_fmt_check_reports_a_long_chain_as_error(self, tmp_path, capsys):
        corpus = [{"id": "chain", "vars": ["x", "y"], "text": " | ".join(["@x y"] * 1000)}]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus), encoding="utf-8")
        assert main(["fmt", "check", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error chain:") and "nests deeper" in out

    def test_fmt_check_flags_a_repeated_id(self, tmp_path, capsys):
        corpus = [{"id": "bad", "vars": ["x"], "text": "<gp> x"},
                  {"id": "twice", "vars": ["x"], "text": "@x x"},
                  {"id": "bad", "vars": ["x"], "text": "@x x"},
                  {"id": "twice", "vars": ["x"], "text": "@x x"}]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus), encoding="utf-8")
        assert main(["fmt", "check", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "error bad", "ok twice", "error bad", "error twice"]
        assert lines[2].endswith("formula id declared twice")


MALFORMED = ["fmt-invalid-json", "fmt-formulas-not-a-list", "graph-not-utf8",
             "policy-not-utf8", "synth-scale-zero", "serve-bad-listen",
             "check-guard-not-json", "synth-nodes-zero", "fmt-entry-not-an-object",
             "fmt-entry-without-id", "admin-bind-primary", "synth-scale-inf",
             "serve-port-out-of-range"]


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_is_an_error_not_a_traceback(fixture_dir, capsys, case):
    bad = fixture_dir / "bad"
    bad.write_bytes({"fmt-invalid-json": b"{not json",
                     "fmt-formulas-not-a-list": b'{"formulas": 5}',
                     "fmt-entry-not-an-object": b'[{"id": "f", "text": "true"}, 5]',
                     "fmt-entry-without-id": b'[{"id": "f", "text": "true"}, {"text": "true"}]',
                     }.get(case, b"\xff\xfe\n"))
    graph, policy = str(fixture_dir / "graph.txt"), str(fixture_dir / "policy.json")
    request = ["--resource", "rec1", "--user", "d1", "--guard", GUARD]
    argv = {
        "fmt-invalid-json": ["fmt", "check", str(bad)],
        "fmt-formulas-not-a-list": ["fmt", "check", str(bad)],
        "fmt-entry-not-an-object": ["fmt", "check", str(bad)],
        "fmt-entry-without-id": ["fmt", "check", str(bad)],
        "graph-not-utf8": ["check", "--graph", str(bad), "--policy", policy, *request],
        "policy-not-utf8": ["check", "--graph", graph, "--policy", str(bad), *request],
        "synth-scale-zero": ["synth", "--seed", "1", "--scale", "0",
                             "--out", str(fixture_dir / "out")],
        "serve-bad-listen": ["serve", *system_args(fixture_dir), "--listen", "nope"],
        "synth-scale-inf": ["synth", "--seed", "1", "--scale", "inf",
                            "--out", str(fixture_dir / "out")],
        "serve-port-out-of-range": ["serve", *system_args(fixture_dir),
                                    "--listen", "127.0.0.1:99999"],
        "check-guard-not-json": ["check", *system_args(fixture_dir), *request[:4],
                                 "--guard", "not json"],
        "admin-bind-primary": ["admin", "exec", *system_args(fixture_dir),
                               "--action", "Referral", "--user", "s1", "--patient", "p1",
                               "--bind", "user=d1", "--bind", "specialist=s1"],
        "synth-nodes-zero": ["synth", "--seed", "1", "--scale", "0.1", "--nodes", "0",
                             "--edges", "0", "--out", str(fixture_dir / "out")],
    }[case]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_serve_subcommand_answers_requests(fixture_dir):
    port = _free_port()
    # the child imports the same rebac package as this process
    src = os.path.dirname(os.path.dirname(rebac.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "rebac.cli", "serve",
         "--graph", str(fixture_dir / "graph.txt"),
         "--policy", str(fixture_dir / "policy.json"),
         "--listen", f"127.0.0.1:{port}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        reply = None
        for _ in range(50):
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=1) as sock:
                    sock.sendall(json.dumps(
                        {"op": "check", "resource": "rec1", "user": "d1",
                         "guard": {"kind": "one-of", "privileges": ["view-record"]}},
                    ).encode() + b"\n")
                    reply = json.loads(sock.makefile().readline())
                break
            except (ConnectionRefusedError, OSError):
                time.sleep(0.1)
        assert reply is not None, "server never came up"
        assert reply["ok"] is True
        assert reply["result"]["allow"] is True
    finally:
        proc.terminate()
        proc.wait(timeout=10)
