"""Seeded instance families: determinism and promised structure."""

import math
from fractions import Fraction

import pytest

from ssg.errors import InvalidGameError
from ssg.evaluation import check_stopping
from ssg.generate import Family, GeneratorSpec, generate
from ssg.model import VertexKind, validate
from ssg.solvers import solve_acyclic
from ssg.structure import analyze, feedback_vertex_set, is_feedback_set


def test_same_spec_same_game():
    spec = GeneratorSpec(12, Family.RANDOM, seed=5)
    assert generate(spec) == generate(spec)


def test_different_seeds_differ():
    a = generate(GeneratorSpec(12, Family.RANDOM, seed=0))
    b = generate(GeneratorSpec(12, Family.RANDOM, seed=1))
    assert a != b


def test_every_family_generates_valid_games():
    for family in Family:
        for seed in range(5):
            g = generate(GeneratorSpec(9, family, seed=seed))
            validate(g)


def test_caterpillar_value_is_one_over_two_to_the_n():
    g = generate(GeneratorSpec(5, Family.CATERPILLAR))
    assert g.n == 7
    assert all(g.kinds[v] is VertexKind.AVE for v in range(5))
    assert g.sink_value(5) == 1 and g.sink_value(6) == 0
    assert solve_acyclic(g)[0] == Fraction(1, 32)


def test_acyclic_family_is_acyclic():
    for seed in range(8):
        g = generate(GeneratorSpec(10, Family.ACYCLIC, seed=seed))
        assert analyze(g).is_acyclic
        assert len(g.sink_vertices) >= 2


def test_single_cycle_family_has_one_feedback_vertex():
    for seed in range(8):
        g = generate(GeneratorSpec(9, Family.SINGLE_CYCLE, seed=seed))
        report = analyze(g)
        assert not report.is_acyclic
        assert is_feedback_set(g, (0,))


def test_max_acyclic_family_never_forks_max():
    for seed in range(8):
        g = generate(GeneratorSpec(10, Family.MAX_ACYCLIC, seed=seed))
        report = analyze(g)
        assert report.is_max_acyclic
        assert not report.is_acyclic


def test_dag_plus_k_family_is_stopping_with_feedback_size_k():
    for k in (1, 2, 3):
        for seed in range(4):
            g = generate(GeneratorSpec(16, Family.DAG_PLUS_K, seed=seed, k=k))
            assert check_stopping(g).stopping
            assert all(g.kinds[h] is VertexKind.AVE for h in range(k))
            fvs = feedback_vertex_set(g)
            assert len(fvs) == k
            assert is_feedback_set(g, range(k))


def test_proportions_are_honored_exactly_by_largest_remainder():
    g = generate(GeneratorSpec(10, Family.RANDOM, seed=2))
    by_kind = {kind: 0 for kind in VertexKind}
    for v in range(g.n):
        by_kind[g.kinds[v]] += 1
    assert by_kind == {
        VertexKind.MAX: 3,
        VertexKind.MIN: 3,
        VertexKind.AVE: 2,
        VertexKind.SINK: 2,
    }


def test_generator_spec_validation():
    with pytest.raises(InvalidGameError):
        generate(GeneratorSpec(0, Family.RANDOM))
    with pytest.raises(InvalidGameError):
        generate(GeneratorSpec(8, Family.RANDOM, proportions=(0, 0, 0, 0)))
    for bad in (
        (-0.5, 0.5, 0.5, 0.5),
        (math.nan, 1, 1, 1),
        (math.inf, 1, 1, 1),
        (1, 1, 1, math.inf),
    ):
        with pytest.raises(InvalidGameError):
            generate(GeneratorSpec(8, Family.RANDOM, proportions=bad))
    with pytest.raises(InvalidGameError):
        generate(GeneratorSpec(2, Family.SINGLE_CYCLE))
    with pytest.raises(InvalidGameError):
        generate(GeneratorSpec(3, Family.MAX_ACYCLIC))
    with pytest.raises(InvalidGameError):
        generate(GeneratorSpec(8, Family.DAG_PLUS_K, k=0))
    with pytest.raises(InvalidGameError):
        generate(GeneratorSpec(5, Family.DAG_PLUS_K, k=2))
