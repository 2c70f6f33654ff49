"""Tests for #show projection and the command-line front-ends."""

import io
import sys

import pytest

from repro.asp import Control
from repro.asp.__main__ import main as asp_main
from repro.bench.__main__ import main as bench_main


def model_strings(text, models=0):
    ctl = Control()
    ctl.add(text)
    ctl.ground()
    out = []
    ctl.solve(on_model=lambda m: out.append(str(m)), models=models)
    return out


class TestShow:
    def test_show_filters_predicates(self):
        (model,) = model_strings("a. bb(1). #show bb/1.")
        assert model == "bb(1)"

    def test_show_respects_arity(self):
        (model,) = model_strings("p. p(1). #show p/1.")
        assert model == "p(1)"

    def test_bare_show_hides_everything(self):
        (model,) = model_strings("a. b. #show.")
        assert model == ""

    def test_no_show_shows_everything(self):
        (model,) = model_strings("a. bb(1).")
        assert model == "a bb(1)"

    def test_show_does_not_change_model_count(self):
        assert len(model_strings("{a; b}. #show a/0.")) == 4


class TestAspCli:
    def run(self, args, stdin_text=None, capsys=None):
        if stdin_text is not None:
            old = sys.stdin
            sys.stdin = io.StringIO(stdin_text)
            try:
                code = asp_main(args)
            finally:
                sys.stdin = old
        else:
            code = asp_main(args)
        return code

    def test_sat_program(self, capsys, tmp_path):
        path = tmp_path / "p.lp"
        path.write_text("{a}. b :- a.")
        assert self.run([str(path), "--models", "0"]) == 0
        out = capsys.readouterr().out
        assert "SATISFIABLE" in out
        assert "Answer: 2" in out

    def test_unsat_program(self, capsys, tmp_path):
        path = tmp_path / "p.lp"
        path.write_text("a. :- a.")
        assert self.run([str(path)]) == 1
        assert "UNSATISFIABLE" in capsys.readouterr().out

    def test_stdin(self, capsys):
        assert self.run(["-"], stdin_text="fact.") == 0
        assert "fact" in capsys.readouterr().out

    def test_theory_mode(self, capsys, tmp_path):
        path = tmp_path / "p.lp"
        path.write_text("&dom { 2..5 } = x. &sum { x } >= 4.")
        assert self.run([str(path), "--theory"]) == 0
        out = capsys.readouterr().out
        assert "x=4" in out or "x=5" in out

    def test_optimize_mode(self, capsys, tmp_path):
        path = tmp_path / "p.lp"
        path.write_text("{a}. :- not a. #minimize { 3 : a }.")
        assert self.run([str(path), "--opt"]) == 0
        out = capsys.readouterr().out
        assert "Optimization: 3" in out
        assert "OPTIMUM FOUND" in out

    def test_stats_flag(self, capsys, tmp_path):
        path = tmp_path / "p.lp"
        path.write_text("{a; b}. :- a, b.")
        self.run([str(path), "--stats", "--models", "0"])
        assert "Conflicts:" in capsys.readouterr().out

    def test_parse_error_names_its_file(self, capsys, tmp_path):
        good = tmp_path / "good.lp"
        good.write_text("a.\n")
        bad = tmp_path / "bad.lp"
        bad.write_text("a.\nb(.")
        # Exit 2, not UNSATISFIABLE's 1; the line is relative to bad.lp.
        assert self.run([str(good), str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"{bad}:2:3: unexpected token '.' in term"
        ]

    def test_grounding_error_is_one_line(self, capsys, tmp_path):
        path = tmp_path / "unsafe.lp"
        path.write_text("p(X) :- q.")
        assert self.run([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: unsafe variable(s) X")


class TestBenchCli:
    def test_table1_quick(self, capsys):
        assert bench_main(["table1", "--quick"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            bench_main(["table9"])
