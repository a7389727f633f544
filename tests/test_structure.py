"""Component decomposition, cycle arcs, fork counting, feedback sets."""

import dataclasses
from fractions import Fraction

import pytest

from helpers import brute_feedback_vertex_set, game_stream
from ssg import structure
from ssg.cli import choose_algorithm
from ssg.errors import InvalidGameError, PreconditionError
from ssg.generate import DEFAULT_PROPORTIONS, Family, GeneratorSpec, generate
from ssg.model import game_of
from ssg.structure import (
    analyze,
    component_game,
    feedback_vertex_set,
    is_feedback_set,
    strongly_connected_components,
    topological_order,
)


def layered_game():
    return game_of([
        ("max", 1, 2),
        ("min", 0, 3),
        ("ave", 3, 4),
        ("ave", 2, 4),
        ("sink", Fraction(1, 2)),
    ])


def test_components_come_successors_first():
    g = layered_game()
    comps = strongly_connected_components(g)
    assert [sorted(c) for c in comps] == [[4], [2, 3], [0, 1]]


def test_self_loop_and_sink_components():
    g = game_of([("max", 0, 1), ("sink", 1)])
    comps = strongly_connected_components(g)
    assert [sorted(c) for c in comps] == [[1], [0]]
    report = analyze(g)
    assert report.component_of[0] != report.component_of[1]
    # the self-loop makes {0} cyclic
    assert (0, 0) in report.cycle_arcs


def test_cycle_arcs_exclude_escapes():
    g = layered_game()
    report = analyze(g)
    assert (2, 3) in report.cycle_arcs and (3, 2) in report.cycle_arcs
    assert (2, 4) not in report.cycle_arcs
    assert (0, 1) in report.cycle_arcs and (1, 0) in report.cycle_arcs
    assert (0, 2) not in report.cycle_arcs and (1, 3) not in report.cycle_arcs


def test_fork_counts_on_two_cycle_structure():
    g = game_of([
        ("ave", 1, 3),
        ("max", 2, 4),
        ("max", 3, 5),
        ("ave", 0, 1),
        ("sink", Fraction(1, 2)),
        ("sink", 1),
    ])
    report = analyze(g)
    assert report.k_p == 0
    assert report.k_a == 2
    assert dict(report.fork_average) == {0: 2, 3: 2}
    assert report.fork_positional == {}
    assert not report.is_almost_acyclic
    assert not report.is_acyclic


def test_fork_counts_positional():
    g = game_of([
        ("max", 1, 2),
        ("ave", 0, 3),
        ("ave", 0, 4),
        ("sink", Fraction(1, 3)),
        ("sink", Fraction(2, 3)),
    ])
    report = analyze(g)
    assert dict(report.fork_positional) == {0: 2}
    assert report.k_p == 1 and report.k_a == 0
    assert not report.is_max_acyclic
    assert report.is_min_acyclic


def test_acyclic_flags():
    g = game_of([("ave", 1, 2), ("max", 2, 2), ("sink", 1)])
    report = analyze(g)
    assert report.is_acyclic
    assert not report.fork_positional and report.is_almost_acyclic
    assert report.is_max_acyclic and report.is_min_acyclic
    assert report.cycle_arcs == frozenset()
    assert report.k_p == 0 and report.k_a == 0


def test_max_acyclic_flag():
    g = game_of([
        ("max", 1, 3),
        ("min", 2, 4),
        ("max", 0, 5),
        ("sink", Fraction(1, 2)),
        ("sink", Fraction(1, 4)),
        ("sink", 1),
    ])
    report = analyze(g)
    assert report.is_max_acyclic
    assert not report.is_acyclic


def test_component_game_keeps_ids_and_converts_boundary():
    g = game_of([
        ("sink", Fraction(1, 4)),
        ("max", 2, 0, 3),
        ("min", 1, 4),
        ("ave", 5, 6),
        ("sink", Fraction(1, 2)),
        ("sink", 0),
        ("sink", 1),
    ])
    comp = (1, 2)
    sub, ids = component_game(g, comp, {3: Fraction(1, 3)})
    # only the component and the vertices its arcs leave into, in id order
    assert ids == (0, 1, 2, 3, 4)
    assert sub.n == len(ids)
    for i, v in enumerate(ids):
        if v in comp:
            assert sub.kinds[i] is g.kinds[v]
            assert tuple(ids[s] for s in sub.succs[i]) == g.succs[v]
        else:
            assert sub.is_sink(i)
    # a solved frontier vertex carries its boundary value
    assert sub.sink_value(3) == Fraction(1, 3)
    # frontier sinks outside the boundary mapping keep their own value
    assert sub.sink_value(0) == Fraction(1, 4)
    assert sub.sink_value(4) == Fraction(1, 2)
    # an unsolved non-sink frontier vertex becomes a 0 placeholder
    bare, bare_ids = component_game(g, comp)
    assert bare_ids == ids
    assert bare.is_sink(3) and bare.sink_value(3) == 0


def test_component_game_refuses_a_vertex_set_that_is_not_a_component():
    g = layered_game()  # components {4}, {2, 3}, {0, 1}
    assert component_game(g, (3, 2))[1] == (2, 3, 4)
    for vertices in [(0,), (0, 1, 2), (1, 3), (), (5,), (-1, 4)]:
        with pytest.raises(PreconditionError, match="not a strongly connected component"):
            component_game(g, vertices)


def assert_inherits_the_analysis(game, comp, boundary=None) -> bool:
    """component_game's report for comp agrees with analysing its
    compact game from scratch; returns whether comp is cyclic."""
    sub, _ = component_game(game, comp, boundary)
    got, want = vars(sub)["structure"], analyze(sub)
    for field in (
        "cycle_succs", "cycle_arcs", "fork_positional", "fork_average",
        "k_p", "k_a", "is_max_acyclic", "is_min_acyclic",
    ):
        assert getattr(got, field) == getattr(want, field), (game, comp, field)
    # the same sets, but the frontier singletons may come in another order
    assert sorted(got.components) == sorted(want.components), (game, comp)
    for i, members in enumerate(got.components):
        for v in members:
            assert got.component_of[v] == i
            assert all(got.component_of[s] <= i for s in sub.succs[v])
    return bool(got.cycle_arcs)


def inherited_report_corpus():
    """Seeded games of every cyclic family, at the default and an
    AVE-heavy mix, n = 4-40, with k = 1-3 for dag_plus_k."""
    for family in (Family.RANDOM, Family.SINGLE_CYCLE, Family.MAX_ACYCLIC, Family.DAG_PLUS_K):
        for mix in (DEFAULT_PROPORTIONS, AVE_HEAVY):
            for n in range(4, 41):
                for k in (1, 2, 3) if family is Family.DAG_PLUS_K else (1,):
                    spec = GeneratorSpec(n=n, family=family, seed=31 * n + k, proportions=mix, k=k)
                    try:
                        yield generate(spec)
                    except InvalidGameError:
                        continue  # dag_plus_k too small for its k


def test_component_games_inherit_the_report_analyze_gives_them():
    cyclic = 0
    for g in inherited_report_corpus():
        for comp in g.structure.components:
            cyclic += assert_inherits_the_analysis(g, comp)
    assert cyclic >= 700


def test_component_games_inherit_the_report_on_hand_made_games():
    # a non-sink self-loop is a cyclic component of its own
    loop = game_of([("ave", 1, 2), ("max", 1, 2), ("sink", 1)])
    assert assert_inherits_the_analysis(loop, (1,))
    # a frontier of parent sinks and solved non-sink vertices, with
    # the component's ids interleaved with its frontier's
    g = game_of([
        ("sink", Fraction(1, 4)),
        ("max", 3, 0, 2),
        ("ave", 5, 6),
        ("min", 1, 5, 7),
        ("ave", 2, 7),
        ("sink", Fraction(1, 2)),
        ("sink", 0),
        ("ave", 3, 4),
    ])
    assert sorted(g.structure.components[-1]) == [1, 3, 4, 7]
    solved = {0: Fraction(1, 4), 2: Fraction(1, 4), 5: Fraction(1, 2), 6: Fraction(0)}
    assert assert_inherits_the_analysis(g, g.structure.components[-1], solved)
    for comp in g.structure.components:
        assert_inherits_the_analysis(g, comp, solved)


def test_feedback_vertex_set_single_cycle():
    g = game_of([("max", 1, 2), ("min", 0, 2), ("sink", 1)])
    fvs = feedback_vertex_set(g)
    assert fvs == (0,)
    assert is_feedback_set(g, fvs)
    assert not is_feedback_set(g, ())


def test_feedback_vertex_set_two_disjoint_cycles():
    g = game_of([
        ("max", 1, 4),
        ("min", 0, 4),
        ("max", 3, 4),
        ("min", 2, 4),
        ("sink", 1),
    ])
    fvs = feedback_vertex_set(g)
    assert len(fvs) == 2
    assert is_feedback_set(g, fvs)
    assert feedback_vertex_set(g, 1) is None


def test_feedback_vertex_set_empty_for_dag():
    g = game_of([("max", 1, 2), ("ave", 2, 2), ("sink", 0)])
    assert feedback_vertex_set(g) == ()


def test_feedback_prefers_small_ids_deterministically():
    for g in game_stream(25, seed=23):
        a = feedback_vertex_set(g)
        b = feedback_vertex_set(g)
        assert a == b
        assert is_feedback_set(g, a)


def test_topological_order_points_arcs_forward_and_rejects_cycles():
    succs = {0: [1, 2], 1: [2, 2], 2: [], 3: [0]}
    order = topological_order([0, 1, 2, 3], succs)
    position = {v: i for i, v in enumerate(order)}
    assert sorted(order) == [0, 1, 2, 3]
    assert all(position[v] < position[s] for v in succs for s in succs[v])
    cycle = {0: [1], 1: [2], 2: [0]}
    assert topological_order([0, 1, 2], cycle) is None
    # arcs leaving the given vertices are ignored
    assert topological_order([0, 1], cycle) == [0, 1]


AVE_HEAVY = (0.15, 0.15, 0.6, 0.1)
PROPORTION_MIXES = [(0.3, 0.3, 0.2, 0.2), AVE_HEAVY, (0.3, 0.3, 0.3, 0.1)]


def feedback_corpus():
    """Seeded games of every cyclic family and proportion mix, with the
    caps each is checked at: 0-3 everywhere, uncapped up to n = 14."""
    for family in (Family.RANDOM, Family.SINGLE_CYCLE, Family.MAX_ACYCLIC, Family.DAG_PLUS_K):
        for mix in PROPORTION_MIXES:
            for n in range(4, 23):
                for s in range(3 if n <= 14 else 1):
                    spec = GeneratorSpec(
                        n=n, family=family, seed=97 * n + s, proportions=mix, k=1 + s
                    )
                    try:
                        g = generate(spec)
                    except InvalidGameError:
                        continue  # dag_plus_k too small for its k
                    yield g, [0, 1, 2, 3] + ([None] if n <= 14 else [])


def test_feedback_vertex_set_matches_subset_enumeration():
    checked = found = 0
    for g, caps in feedback_corpus():
        for cap in caps:
            got = feedback_vertex_set(g, cap)
            assert got == brute_feedback_vertex_set(g, cap), (g, cap)
            checked += 1
            found += got is not None and len(got) >= 2
    assert checked >= 1500
    assert found >= 300  # the greedy pass often picks more than one vertex


def test_feedback_vertex_set_on_hand_made_games():
    cases = [
        # a self-loop on a non-sink vertex is a cycle of its own
        (game_of([("max", 0, 1), ("sink", 1)]), (0,)),
        (game_of([("min", 1, 2), ("max", 1, 0), ("sink", 0)]), (1,)),
        # two cyclic components with interleaved ids: {0, 2, 4} needs 4
        # and {1, 3, 5} needs 3, so the answer mixes both components
        (
            game_of([
                ("max", 4, 1),
                ("min", 3, 5),
                ("max", 4),
                ("min", 1, 5),
                ("ave", 0, 2),
                ("max", 3, 6),
                ("sink", Fraction(1, 2)),
            ]),
            (3, 4),
        ),
        # exits that reach only sinks are on no cycle
        (
            game_of([
                ("max", 1, 2),
                ("ave", 0, 3),
                ("min", 4, 5),
                ("ave", 4, 5),
                ("sink", 0),
                ("sink", 1),
            ]),
            (0,),
        ),
    ]
    for g, expected in cases:
        assert feedback_vertex_set(g) == expected == brute_feedback_vertex_set(g)
        assert feedback_vertex_set(g, len(expected) - 1) is None
        assert is_feedback_set(g, expected)


class CountedSuccessors:
    """A cycle-successor table that counts how often the search reads a
    vertex's row, and stops it once the count passes a limit."""

    def __init__(self, rows, limit: int):
        self.rows, self.limit, self.reads = rows, limit, 0

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, v):
        self.reads += 1
        if self.reads > self.limit:
            raise AssertionError(f"feedback set search read over {self.limit} rows")
        return self.rows[v]


def long_cycle(n: int, chords: dict[int, int]):
    """MAX vertices 0 -> 1 -> ... -> n-1 -> 0, each with an arc to the
    sink n, plus one chord arc from each key to its value."""
    rows = [("max", (v + 1) % n, n, *([chords[v]] if v in chords else [])) for v in range(n)]
    return game_of(rows + [("sink", 1)])


VISITS_PER_VERTEX = 100


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda: generate(GeneratorSpec(n=10_000, family=Family.SINGLE_CYCLE, seed=1)), (0,)),
        # three disjoint cycles of 1,500-2,000 vertices, each sharing a
        # stretch with the long cycle: a shortest-cycle search started from
        # every vertex would read millions of rows
        (lambda: long_cycle(10_000, {2500: 500, 6000: 4000, 9000: 7500}), (500, 4000, 7500)),
        # overlapping chords: 30 lies on every cycle
        (lambda: long_cycle(10_000, {5000: 10, 5010: 20, 7000: 30}), (30,)),
    ],
)
def test_feedback_search_reads_each_vertex_a_bounded_number_of_times(make, expected):
    # a count, not a clock: the search reads game.structure.cycle_succs
    # for every vertex it trims, walks or expands
    g = make()
    report = g.structure
    rows = CountedSuccessors(report.cycle_succs, VISITS_PER_VERTEX * g.n)
    vars(g)["structure"] = dataclasses.replace(report, cycle_succs=rows)
    assert feedback_vertex_set(g) == expected
    assert feedback_vertex_set(g, len(expected) - 1) is None


@pytest.mark.parametrize("seed", [1, 3])
def test_auto_set_search_reuses_the_game_structure(monkeypatch, seed):
    # random n=45 seed 1 ends in hk, seed 3 in feedback; both search
    seen = []
    analyze = structure.analyze

    def recording_analyze(game):
        seen.append(game)
        return analyze(game)

    monkeypatch.setattr(structure, "analyze", recording_analyze)
    g = generate(GeneratorSpec(n=45, family=Family.RANDOM, seed=seed))
    assert choose_algorithm(g) in ("feedback", "hk")
    assert seen == [g]


def test_a_capped_set_search_that_fails_stops_at_its_cycle_count(monkeypatch):
    # a count, not a clock: one 49-vertex component whose smallest set
    # has 6 vertices; without a lower bound the search under cap 5 made
    # 3,522 calls before it returned None
    calls = []
    coverable = structure._coverable

    def counting(*args):
        calls.append(args)
        return coverable(*args)

    monkeypatch.setattr(structure, "_coverable", counting)
    g = generate(GeneratorSpec(n=80, family=Family.RANDOM, seed=3, proportions=AVE_HEAVY))
    assert feedback_vertex_set(g, 5) is None
    assert 0 < len(calls) <= 1761
    assert feedback_vertex_set(g, 6) == (7, 17, 27, 39, 52, 66)
