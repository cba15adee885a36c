import pytest

from blocklex import Graph, TotalOrder, clique, factor_profile_and_order, graph_power, petersen


@pytest.fixture(scope="session")
def pet():
    return petersen()


@pytest.fixture(scope="session")
def pet_profile(pet):
    return factor_profile_and_order(pet)[0]


@pytest.fixture(scope="session")
def pet_order(pet):
    return factor_profile_and_order(pet)[1]


@pytest.fixture(scope="session")
def cube3():
    return graph_power(clique(2), 3)


@pytest.fixture(scope="session")
def k2_order():
    return TotalOrder.identity(2)


@pytest.fixture(scope="session")
def non_nested_7():
    """A 7-vertex graph with no chain of optimal sets (found by randomized
    search over small graphs; every graph on <= 6 vertices admits one, which
    an exhaustive scan confirmed)."""
    return Graph(7, [
        (0, 1), (0, 3), (0, 4), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5),
        (2, 3), (2, 5), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),
    ])
