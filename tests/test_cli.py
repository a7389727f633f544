"""Command line behavior: dispatch, formats, exit codes."""

import argparse
import re
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import game_stream
from ssg import cli, evaluation, structure
from ssg.cli import choose_algorithm, main, run_algorithm
from ssg.errors import InternalInvariantError, NotStoppingError, PreconditionError
from ssg.gamefile import parse, serialize
from ssg.generate import Family, GeneratorSpec, generate
from ssg.iteration import hoffman_karp
from ssg.model import game_of
from ssg.oracle import oracle_solve


def write_game(tmp_path, game, name="game.ssg"):
    path = tmp_path / name
    path.write_text(serialize(game), encoding="utf-8")
    return str(path)


def acyclic_game():
    return game_of([("ave", 1, 2), ("sink", 1), ("sink", 0)])


def cycle_game():
    return game_of([("ave", 1, 2), ("ave", 0, 3), ("sink", 0), ("sink", 1)])


def trap_game():
    return game_of([("max", 2, 1), ("min", 3, 0), ("sink", 1), ("sink", 0)])


# --- dispatch ---------------------------------------------------------------


def test_choose_algorithm_prefers_cheap_structure():
    assert choose_algorithm(acyclic_game()) == "acyclic"
    assert choose_algorithm(cycle_game()) == "almost_acyclic"
    fork = game_of([
        ("max", 1, 2),
        ("ave", 0, 3),
        ("ave", 0, 4),
        ("sink", Fraction(1, 3)),
        ("sink", Fraction(2, 3)),
    ])
    assert choose_algorithm(fork) == "fork_fpt"


def test_run_algorithm_agrees_with_oracle_on_auto():
    for g in game_stream(25, seed=97, stopping=True):
        report = run_algorithm(g, "auto")
        assert report.values == oracle_solve(g).values
        assert report.algorithm != "auto"


def test_run_algorithm_counts_dichotomy_calls():
    report = run_algorithm(cycle_game(), "dichotomy")
    assert report.algorithm == "dichotomy"
    assert report.subsolver_calls is not None and report.subsolver_calls > 0
    assert report.values == (
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(0),
        Fraction(1),
    )


def test_auto_feedback_pick_stays_within_its_subsolve_count():
    # this game once took 462,279 subsolves (78 s) in the nested bisection;
    # with warm starts and the strategy step it takes 10
    g = generate(GeneratorSpec(
        n=23, family=Family.RANDOM, seed=4, proportions=(0.15, 0.15, 0.6, 0.1)
    ))
    report = run_algorithm(g, "auto")
    assert report.algorithm == "feedback"
    assert report.subsolver_calls <= 20
    assert report.values == hoffman_karp(g).values


def test_auto_feedback_pick_searches_for_its_cover_once(monkeypatch):
    # a count, not a clock: choose_algorithm's capped search and the
    # feedback row's uncapped one find the same cover, so the game keeps
    # it; one uncapped search on this game makes 24 _coverable calls
    spec = GeneratorSpec(n=23, family=Family.RANDOM, seed=4, proportions=(0.15, 0.15, 0.6, 0.1))
    calls = []
    coverable = structure._coverable

    def counting(*args):
        calls.append(args)
        return coverable(*args)

    monkeypatch.setattr(structure, "_coverable", counting)
    g = generate(spec)
    assert run_algorithm(g, "auto").algorithm == "feedback"
    assert len(calls) == 24
    assert structure.feedback_vertex_set(g) == (1, 5, 7)
    assert structure.feedback_vertex_set(g, 2) is None
    assert len(calls) == 24
    calls.clear()
    assert structure.feedback_vertex_set(generate(spec)) == (1, 5, 7)
    assert len(calls) == 24


def stopping_choice_game():
    return game_of([
        ("max", 1, 3),
        ("min", 2, 4),
        ("ave", 0, 5),
        ("sink", Fraction(1, 2)),
        ("sink", Fraction(1, 4)),
        ("sink", 1),
    ])


@pytest.mark.parametrize("algorithm, game", [
    # two disjoint positional cycles: no one-vertex cover, and MAX and
    # MIN can keep the play circling
    pytest.param("dichotomy", game_of([
        ("max", 1, 4),
        ("min", 0, 5),
        ("max", 3, 4),
        ("min", 2, 5),
        ("sink", 1),
        ("sink", 0),
    ]), id="dichotomy"),
    # k_p + k_a = 11 and 12, past fork_fpt: a cover of three exists for
    # the first, none for the second, and neither game stops
    pytest.param("auto", generate(GeneratorSpec(n=14, family=Family.RANDOM, seed=38)),
                 id="auto-random-14-38"),
    pytest.param("auto", generate(GeneratorSpec(n=15, family=Family.RANDOM, seed=49)),
                 id="auto-random-15-49"),
])
def test_dichotomy_refuses_a_non_stopping_game_before_its_set_search(
    monkeypatch, algorithm, game
):
    def no_search(*args):
        raise AssertionError("feedback set searched for a game about to be refused")

    monkeypatch.setattr(cli, "feedback_vertex_set", no_search)
    with pytest.raises(NotStoppingError):
        run_algorithm(game, algorithm)


def test_run_algorithm_refuses_an_unknown_name():
    with pytest.raises(PreconditionError, match="unknown algorithm 'nope'"):
        run_algorithm(cycle_game(), "nope")


def test_run_algorithm_reports_hk_iterations():
    report = run_algorithm(stopping_choice_game(), "hk")
    assert report.iterations is not None and report.iterations >= 0
    assert report.values[0] == Fraction(1, 2)


# --- solve -----------------------------------------------------------------


def test_solve_prints_values_and_algorithm(tmp_path, capsys):
    path = write_game(tmp_path, cycle_game())
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "algorithm: almost_acyclic (auto)" in out
    assert "  0 = 1/3" in out
    assert "  1 = 2/3" in out
    assert "  3 = 1/1" in out


def test_solve_explicit_algorithm_and_strategies(tmp_path, capsys):
    path = write_game(tmp_path, stopping_choice_game())
    assert main(["solve", path, "--algorithm", "hk", "--strategies"]) == 0
    out = capsys.readouterr().out
    assert "algorithm: hk\n" in out
    assert "iterations:" in out
    assert "  0 = 1/2" in out
    assert "  2 = 3/4" in out
    assert "max 0 -> 3" in out
    assert "min 1 -> 4" in out


def test_solve_strategies_treat_a_wrong_answer_as_an_internal_error(
    tmp_path, capsys, monkeypatch
):
    # the right values are 1/2, 1/4, 3/4; 1/3 at vertex 0 breaks its
    # own equation and AVE vertex 2's
    def wrong(game):
        return (Fraction(1, 3), Fraction(1, 4), Fraction(3, 4), *game.sink_values[3:]), 0, None

    monkeypatch.setitem(cli.SOLVERS, "hk", wrong)
    path = write_game(tmp_path, stopping_choice_game())
    assert main(["solve", path, "--algorithm", "hk", "--strategies"]) == 3
    err = capsys.readouterr().err
    assert "internal invariant violated" in err and "[0, 2]" in err


def test_solve_strategies_check_local_optimality_once(tmp_path, capsys, monkeypatch):
    calls = []
    check = evaluation.check_local_optimality

    def counting(game, w):
        calls.append(game.n)
        return check(game, w)

    monkeypatch.setattr(evaluation, "check_local_optimality", counting)
    path = write_game(tmp_path, stopping_choice_game())
    assert main(["solve", path, "--algorithm", "hk"]) == 0
    plain = len(calls)
    assert main(["solve", path, "--algorithm", "hk", "--strategies"]) == 0
    assert len(calls) - 2 * plain == 1
    assert "max 0 -> 3" in capsys.readouterr().out


def test_solve_strategies_leave_a_tied_self_loop_on_non_stopping_games(tmp_path, capsys):
    # every value is 1/2; the self-loop 0 -> 0 ties but is worth 0
    path = str(tmp_path / "g.ssg")
    assert main(["generate", "--family", "random", "--n", "4", "--seed", "30", "-o", path]) == 0
    assert main(["solve", path, "--strategies"]) == 0
    out = capsys.readouterr().out
    assert "  0 = 1/2" in out
    assert "max 0 -> 0" not in out
    assert "max 0 -> 1" in out


def test_solve_missing_file_is_input_error(capsys):
    assert main(["solve", "/no/such/file.ssg"]) == 1
    assert "input error" in capsys.readouterr().err


def test_solve_bad_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.ssg"
    path.write_text("ssg 1\n0 avg 1 2\n", encoding="utf-8")
    assert main(["solve", str(path)]) == 1
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "classify"])
def test_a_file_that_is_not_utf8_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "binary.ssg"
    path.write_bytes(b"ssg 1\n0 sink 1/2\xff\n")
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error" in captured.err and "0xff" in captured.err


def test_solve_non_stopping_suggests_transform(tmp_path, capsys):
    path = write_game(tmp_path, trap_game())
    assert main(["solve", path, "--algorithm", "hk"]) == 2
    err = capsys.readouterr().err
    assert "refused" in err and "--make-stopping" in err


def test_feedback_refuses_a_non_stopping_game_before_its_set_search(
    tmp_path, capsys, monkeypatch
):
    def no_search(*args):
        raise AssertionError("feedback set searched for a game about to be refused")

    monkeypatch.setattr(cli, "feedback_vertex_set", no_search)
    path = write_game(tmp_path, trap_game())
    assert main(["solve", path, "--algorithm", "feedback"]) == 2
    err = capsys.readouterr().err
    assert "refused" in err and "not stopping" in err


def test_solve_feedback_covers_two_cycles_that_dichotomy_refuses(tmp_path, capsys):
    # two disjoint AVE cycles, each leaking to both sinks: a stopping
    # game whose smallest feedback vertex set has two vertices
    path = write_game(tmp_path, game_of([
        ("ave", 1, 4),
        ("ave", 0, 5),
        ("ave", 3, 4),
        ("ave", 2, 5),
        ("sink", 1),
        ("sink", 0),
    ]))
    assert main(["solve", path, "--algorithm", "dichotomy"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "refused: no feedback vertex set of size <= 1" in captured.err
    assert main(["solve", path, "--algorithm", "feedback"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^subsolver calls: [1-9]\d*$", out, re.M)
    assert "  0 = 2/3" in out


def test_solve_make_stopping_flag(tmp_path, capsys):
    path = write_game(tmp_path, trap_game())
    assert main(["solve", path, "--algorithm", "hk", "--make-stopping", "8"]) == 0
    out = capsys.readouterr().out
    assert "  0 = 1/1" in out
    assert "  1 = 0/1" in out
    # 0 picks the chain length automatically
    assert main(["solve", path, "--algorithm", "hk", "--make-stopping", "0"]) == 0


def test_solve_rejects_a_negative_chain_length_as_input_error(tmp_path, capsys):
    path = write_game(tmp_path, trap_game())
    assert main(["solve", path, "--algorithm", "hk", "--make-stopping", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "-3 is negative" in captured.err


def test_solve_make_stopping_reports_the_input_game(tmp_path, capsys):
    game = game_of([("max", 1, 2), ("ave", 0, 3), ("sink", 0), ("sink", 1)])
    path = write_game(tmp_path, game)
    argv = ["solve", path, "--algorithm", "hk", "--make-stopping", "4", "--strategies"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "vertices: 4 (max 1, min 0, ave 1)" in out
    assert [int(v) for v in re.findall(r"^  (\d+) = ", out, re.M)] == [0, 1, 2, 3]
    # MAX keeps the arc into 1, which the transformed game routes
    # through a coin chain whose head has an id past the input's
    assert re.findall(r"^  max (\d+) -> (\d+)$", out, re.M) == [("0", "1")]


def test_solve_internal_invariant_exit_code(tmp_path, capsys, monkeypatch):
    import ssg.cli as cli_module

    def boom(game, name):
        raise InternalInvariantError("forced for the test")

    monkeypatch.setattr(cli_module, "run_algorithm", boom)
    path = write_game(tmp_path, acyclic_game())
    assert main(["solve", path]) == 3
    assert "internal invariant violated" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    assert main(["solve"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["--help"]) == 0


# --- classify ----------------------------------------------------------------


def test_classify_reports_structure(tmp_path, capsys):
    path = write_game(tmp_path, cycle_game())
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "vertices: 4 (max 0, min 0, ave 2, sink 2)" in out
    assert "components: 3 (1 cyclic)" in out
    assert "cycle arcs: 2" in out
    assert "k_p: 0 (fork vertices: none)" in out
    assert "k_a: 0 (fork vertices: none)" in out
    assert "acyclic: no" in out
    assert "almost_acyclic: yes" in out
    assert "feedback vertex set: size 1 (0)" in out


def test_classify_fvs_cap(tmp_path, capsys):
    g = game_of([
        ("max", 1, 4),
        ("min", 0, 4),
        ("max", 3, 4),
        ("min", 2, 4),
        ("sink", 1),
    ])
    path = write_game(tmp_path, g)
    assert main(["classify", path, "--fvs-max", "1"]) == 0
    assert "feedback vertex set: none of size <= 1" in capsys.readouterr().out


def test_classify_rejects_a_negative_fvs_cap(tmp_path, capsys):
    path = write_game(tmp_path, cycle_game())
    assert main(["classify", path, "--fvs-max", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "-1 is negative" in captured.err


# --- generate -----------------------------------------------------------------


def test_generate_writes_parseable_file(tmp_path, capsys):
    out_path = tmp_path / "generated.ssg"
    code = main([
        "generate",
        "--family", "single_cycle",
        "--n", "9",
        "--seed", "4",
        "-o", str(out_path),
    ])
    assert code == 0
    g = parse(out_path.read_text(encoding="utf-8"))
    assert g.n == 9


def test_generate_to_stdout_matches_file_output(tmp_path, capsys):
    args = ["generate", "--family", "acyclic", "--n", "7", "--seed", "2"]
    assert main(args) == 0
    stdout_text = capsys.readouterr().out
    out_path = tmp_path / "same.ssg"
    assert main(args + ["-o", str(out_path)]) == 0
    assert out_path.read_text(encoding="utf-8") == stdout_text


def test_generate_rejects_bad_spec(capsys):
    assert main(["generate", "--family", "single_cycle", "--n", "2"]) == 1
    assert "input error" in capsys.readouterr().err


def test_non_finite_proportions_are_usage_errors(capsys):
    generate_argv = ["generate", "--family", "random", "--n", "6", "--seed", "1"]
    bench_argv = ["bench", "--family", "random", "--sizes", "6", "--solvers", "auto"]
    for argv in (generate_argv, bench_argv):
        for text in ("nan,1,1,1", "inf,1,1,1", "1,1,1,inf"):
            assert main(argv + ["--proportions", text]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "must be finite" in captured.err


# --- bench ---------------------------------------------------------------------


def test_bench_prints_table_and_machine_rows(capsys):
    code = main([
        "bench",
        "--family", "single_cycle",
        "--sizes", "6,8",
        "--solvers", "auto,oracle",
        "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "solver" in out and "status" in out
    machine = [line for line in out.splitlines() if line.startswith("#row ")]
    assert len(machine) == 4
    assert all("status=ok" in line for line in machine)
    assert "solver=auto" in machine[0] and "n=6" in machine[0]


def test_bench_keeps_every_row_when_a_solver_breaks(monkeypatch, capsys):
    def broken(game):
        raise InternalInvariantError("forced for the test")

    monkeypatch.setitem(cli.SOLVERS, "hk", broken)
    code = main([
        "bench",
        "--family", "single_cycle",
        "--sizes", "6,8",
        "--solvers", "hk,oracle",
        "--seed", "3",
    ])
    assert code == 3
    lines = capsys.readouterr().out.splitlines()[1:]
    # each machine row follows its table line
    assert [line.startswith("#row ") for line in lines] == [False, True] * 4
    rows = lines[1::2]
    assert all(("status=error" in row) == ("solver=hk" in row) for row in rows)
    assert all("status=ok" in row for row in rows if "solver=oracle" in row)


def test_bench_marks_refusals(capsys):
    # the acyclic solver always refuses single-cycle instances
    code = main([
        "bench",
        "--family", "single_cycle",
        "--sizes", "6",
        "--solvers", "acyclic",
        "--seed", "0",
        "--reps", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.startswith("#row ")]
    assert len(rows) == 3
    assert all("status=refused" in line for line in rows)


def test_bench_rejects_sizes_below_one_before_any_row(capsys):
    argv = ["bench", "--family", "single_cycle", "--solvers", "auto", "--sizes"]
    for sizes in ("8,-3", "0"):
        assert main(argv + [sizes]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not positive" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["--family", "single_cycle", "--sizes", "8,2"], "single_cycle needs n >= 3"),
    (["--family", "dag_plus_k", "--k", "3", "--sizes", "12,6"], "needs n >= 10 for k=3"),
    (["--family", "random", "--sizes", "8", "--proportions", "0,0,0,0"], "not all zero"),
], ids=["single_cycle", "dag_plus_k", "zero_proportions"])
def test_bench_builds_every_game_before_any_row(capsys, argv, message):
    assert main(["bench", "--solvers", "auto", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_empty_lists_and_k_below_one_are_usage_errors(capsys):
    bench = ["bench", "--family", "dag_plus_k"]
    cases = [
        (bench + ["--sizes", ",", "--solvers", "auto"], "at least one size"),
        (bench + ["--sizes", "10", "--solvers", ","], "at least one solver"),
        (bench + ["--sizes", "10", "--solvers", "auto", "--k", "-2"], "-2 is not positive"),
        (["generate", "--family", "random", "--n", "6", "--k", "0"], "0 is not positive"),
    ]
    for argv, message in cases:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


@pytest.mark.parametrize("option, text, message", [
    ("--proportions", "1,1,1", "four comma-separated numbers"),
    ("--proportions", "1,1,x,1", "could not convert string to float"),
    ("--reps", "1.5", "invalid literal for int()"),
    ("--solvers", "auto,nope", "unknown solver 'nope'"),
], ids=["three_proportions", "non_number_proportion", "non_integer_reps", "unknown_solver"])
def test_malformed_option_values_are_usage_errors(capsys, option, text, message):
    argv = ["bench", "--family", "single_cycle", "--sizes", "6", "--solvers", "auto"]
    assert main(argv + [option, text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_bench_rejects_non_positive_reps(capsys):
    argv = ["bench", "--family", "single_cycle", "--sizes", "6", "--solvers", "auto"]
    for reps in ("-1", "0"):
        assert main(argv + ["--reps", reps]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{reps} is not positive" in captured.err


# --- one solver list ------------------------------------------------------------


def test_readme_and_parser_list_the_registered_solvers():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8"
    )
    sentence = re.search(r"`--algorithm` forces a specific solver \((.*?)\)", readme, re.S)
    assert tuple(re.findall(r"`(\w+)`", sentence.group(1))) == cli.ALGORITHMS
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    solve = commands.choices["solve"]
    option = next(a for a in solve._actions if "--algorithm" in a.option_strings)
    assert tuple(option.choices) == cli.ALGORITHMS
