import sys

import pytest

from wellcov import Graph, generate


def cached_functions() -> set:
    """Every object with a `cache_clear` in the loaded `wellcov` modules."""
    return {obj for name, mod in list(sys.modules.items())
            if name == "wellcov" or name.startswith("wellcov.")
            for obj in vars(mod).values() if hasattr(obj, "cache_clear")}


@pytest.fixture(autouse=True)
def fresh_caches():
    # no test reads a value that an earlier test left in a cache
    for cached in cached_functions():
        cached.cache_clear()


@pytest.fixture
def c4() -> Graph:
    return generate("cycle:n=4").graph


@pytest.fixture
def c5() -> Graph:
    return generate("cycle:n=5").graph


@pytest.fixture
def c7() -> Graph:
    return generate("cycle:n=7").graph


@pytest.fixture
def p4() -> Graph:
    return generate("path:n=4").graph


@pytest.fixture
def petersen() -> Graph:
    return generate("petersen").graph


@pytest.fixture
def petersen_complement() -> Graph:
    return generate("petersen_complement").graph


@pytest.fixture
def star() -> Graph:
    # K_{1,3}: center 0, leaves 1..3
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
