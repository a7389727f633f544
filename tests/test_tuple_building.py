"""Source guard: the package never builds a tuple from a generator."""

import ast
from pathlib import Path

import ssg

SOURCE = Path(ssg.__file__).parent


def generator_tuples(tree: ast.AST):
    """(line, pattern) of every tuple(<generator>) call and every call
    that unpacks a generator into its arguments, f(*<generator>)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "tuple"
            and node.args
            and isinstance(node.args[0], ast.GeneratorExp)
        ):
            yield node.lineno, "tuple(<generator>)"
        for arg in node.args:
            if isinstance(arg, ast.Starred) and isinstance(arg.value, ast.GeneratorExp):
                yield node.lineno, "f(*<generator>)"


def test_no_tuple_is_built_from_a_generator():
    """Build per-request tuples from lists: tuple([...]), f(*[...]).

    A generator has no length, so CPython (3.11) starts
    tuple(<generator>) and f(*<generator>) with a 10-slot tuple and
    resizes it to the final length.  Freed, the tuple goes onto the
    free list of its final size, and each such list keeps up to 2,000
    tuples.  The size-10 list stays empty, so every such tuple takes
    fresh memory, and the lists of the final sizes fill up instead of
    being reused.  Measured over 5,000 `auto_mix` requests in one
    process (`perfbench`, seed 1): `sys._debugmallocstats()` showed an
    empty size-10 list and 664-2,000 tuples on each list of sizes 1-18,
    and resident memory climbed 21.9 -> 25.2 MB, about 0.6 MB per 1,000
    requests.  A tuple built from a list is allocated at its exact size,
    from and back to the same free list: with every site converted,
    those lists held 11-530 tuples and memory went 21.6 -> 22.1 MB.
    """
    found = [
        f"{path.name}:{line}: {pattern}"
        for path in sorted(SOURCE.glob("*.py"))
        for line, pattern in generator_tuples(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, found


def test_the_guard_sees_both_patterns():
    tree = ast.parse("a = tuple(x for x in y)\nb = f(1, *(x for x in y))\nc = tuple([x for x in y])\n")
    assert [line for line, _ in generator_tuples(tree)] == [1, 2]
