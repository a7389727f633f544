"""Seeded workloads: the game texts a run sends, one request per game.

Every workload is a closed loop over a list of requests.  A request is
the text of one game plus the command it would be given on the command
line (`ssg solve [--make-stopping] --algorithm A FILE`).  The list is a
pure function of the seed.

Per-game solve cost is very uneven inside one generator family: on
plain `random` games it spans three decades, so two seeds gave medians
20-40% apart even over 400 games.  The lists are therefore drawn by
balanced blocks: every parameter that moves the cost a lot (size,
sink denominator, family) takes each of its grid values exactly once
per block, in an order the seed shuffles, and the seed draws everything
else (arcs, vertex kinds, owners, sink numerators).  Any prefix of a
list then has nearly the same mix of sizes, whatever the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator


@dataclass(frozen=True)
class Request:
    text: str
    algorithm: str
    # coin-chain length for make_stopping, or None to solve the game as given
    make_stopping: int | None
    label: str


@dataclass(frozen=True)
class Workload:
    name: str
    # generator parameters and solver, printed with every run
    params: dict
    # distinct games built per run; the loop cycles when a run outlasts them
    list_size: int
    # leading requests replayed by the traced run and digested
    trace_size: int
    build: Callable[[random.Random, int], list[Request]]


def balanced(rng: random.Random, strata: list) -> Iterator:
    """Endless draws from strata, each stratum once per shuffled block."""
    while True:
        block = list(strata)
        rng.shuffle(block)
        yield from block


def _resunk(game, rng: random.Random, q: int):
    """The game with every sink value redrawn as p/q, 0 < p < q.

    One odd denominator per game fixes the denominator bound the
    bisection and make_stopping derive from the sinks, and keeps
    values off the dyadic grid where bisection stops early.
    """
    values = list(game.sink_values)
    for v in game.sink_vertices:
        values[v] = Fraction(rng.randint(1, q - 1), q)
    return game.replace(sink_values=tuple(values))


def _chain_text(rng: random.Random, blocks: int) -> str:
    """b two-vertex cycles in a row, ending in one seeded sink.

    Block i is an owner at 2i (MAX or MIN) with arcs to (2i+1, 2i+2)
    and an AVE at 2i+1 with arcs to (2i, 2i+2); vertex 2b is the sink.
    """
    lines = ["ssg 1"]
    for i in range(blocks):
        owner = rng.choice(("max", "min"))
        lines.append(f"{2 * i} {owner} {2 * i + 1} {2 * i + 2}")
        lines.append(f"{2 * i + 1} ave {2 * i} {2 * i + 2}")
    q = rng.randint(2, 16)
    lines.append(f"{2 * blocks} sink {rng.randint(1, q - 1)}/{q}")
    return "\n".join(lines) + "\n"


CHAIN_BLOCKS = list(range(60, 141, 10))


def _scc_chain(rng: random.Random, count: int) -> list[Request]:
    sizes = balanced(rng, CHAIN_BLOCKS)
    out = []
    for _ in range(count):
        b = next(sizes)
        out.append(Request(_chain_text(rng, b), "auto", None, f"b={b}"))
    return out


def _generated(rng, family: str, n: int, q: int | None, k: int = 1) -> str:
    # imported per call: each timed set-up loads the package afresh
    from ssg import Family, GeneratorSpec, generate, serialize

    spec = GeneratorSpec(n=n, family=Family(family), seed=rng.randrange(2**31), k=k)
    game = generate(spec)
    if q is not None:
        game = _resunk(game, rng, q)
    return serialize(game)


ODD_DENOMINATORS = [3, 5, 7]
HK_SIZES = list(range(10, 15))
# The default chain length (2n plus the sink denominator's bits, 22-31
# here) spreads one game's cost over two decades, and a run's median
# then moved 20% between seeds; at m=10 it moves under 6%, with dense
# elimination still over four fifths of the time.
HK_CHAIN = 10


def _hk_stopping(rng: random.Random, count: int) -> list[Request]:
    strata = balanced(rng, list(itertools.product(HK_SIZES, ODD_DENOMINATORS)))
    out = []
    for _ in range(count):
        n, q = next(strata)
        text = _generated(rng, "single_cycle", n, q)
        out.append(Request(text, "hk", HK_CHAIN, f"single_cycle n={n} q={q}"))
    return out


FEEDBACK_SIZES = list(range(20, 33, 3))


def _feedback_bisect(rng: random.Random, count: int) -> list[Request]:
    strata = balanced(rng, list(itertools.product(FEEDBACK_SIZES, ODD_DENOMINATORS)))
    out = []
    for _ in range(count):
        n, q = next(strata)
        text = _generated(rng, "dag_plus_k", n, q, k=2)
        out.append(Request(text, "feedback", None, f"dag_plus_k k=2 n={n} q={q}"))
    return out


MIX_FAMILIES = ["random", "single_cycle", "max_acyclic", "dag_plus_k", "acyclic"]
MIX_SIZES = list(range(40, 81, 10))
# auto refuses most random games only after an exhaustive feedback-set
# search whose cost grows as n^4: at n=80 one refusal takes over a second
# and random games alone filled nine tenths of a run
MIX_RANDOM_SIZES = list(range(40, 51, 5))
MIX_K = [1, 2, 3]


def _auto_mix(rng: random.Random, count: int) -> list[Request]:
    # round robin over families; each family balances its own sizes
    sizes = {
        f: balanced(rng, MIX_RANDOM_SIZES if f == "random" else MIX_SIZES) for f in MIX_FAMILIES
    }
    ks = balanced(rng, MIX_K)
    out = []
    for i in range(count):
        family = MIX_FAMILIES[i % len(MIX_FAMILIES)]
        n = next(sizes[family])
        k = next(ks) if family == "dag_plus_k" else 1
        text = _generated(rng, family, n, None, k=k)
        out.append(Request(text, "auto", None, f"{family} n={n} k={k}"))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scc_chain",
            params={
                "solver": "auto",
                "shape": "chain of b two-vertex cycles",
                "b": CHAIN_BLOCKS,
                "sink": "p/q, 2 <= q <= 16",
            },
            list_size=400,
            trace_size=18,
            build=_scc_chain,
        ),
        Workload(
            name="hk_stopping",
            params={
                "solver": "hk",
                "make_stopping": HK_CHAIN,
                "family": "single_cycle",
                "n": HK_SIZES,
                "sink": f"p/q, q in {ODD_DENOMINATORS}",
            },
            list_size=1500,
            trace_size=45,
            build=_hk_stopping,
        ),
        Workload(
            name="feedback_bisect",
            params={
                "solver": "feedback",
                "family": "dag_plus_k",
                "k": 2,
                "n": FEEDBACK_SIZES,
                "sink": f"p/q, q in {ODD_DENOMINATORS}",
            },
            list_size=600,
            trace_size=30,
            build=_feedback_bisect,
        ),
        Workload(
            name="auto_mix",
            params={
                "solver": "auto",
                "families": MIX_FAMILIES,
                "n": MIX_SIZES,
                "n_random": MIX_RANDOM_SIZES,
                "k": MIX_K,
            },
            list_size=1000,
            trace_size=50,
            build=_auto_mix,
        ),
    )
}


def build_requests(workload: Workload, seed: int) -> list[Request]:
    """The workload's request list for one seed."""
    return workload.build(random.Random(f"{workload.name}:{seed}"), workload.list_size)
