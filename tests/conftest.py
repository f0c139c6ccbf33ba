"""Checks shared by the test modules."""

from itertools import product

import pytest

from sgcl.game import ActionProfile, game_from_dict, game_to_dict, validate


def assert_row_ids_in_product_order(g):
    """Each state's row ids are the row indices of its complete profiles,
    listed in the product order of the actions over the agents."""
    profiles = [ActionProfile(tuple(zip(g.agents, combo)))
                for combo in product(g.actions, repeat=len(g.agents))]
    for s in g.states:
        assert g.row_ids(s) == tuple(g.row_index(s, p) for p in profiles), s


def assert_builder_output(g):
    """An internal builder's game goes through the trusted constructor,
    which checks nothing, so the tests check it: it validates, its row
    ids follow product order, and it survives the JSON round trip."""
    assert validate(g) == []
    assert_row_ids_in_product_order(g)
    assert game_from_dict(game_to_dict(g)) == g


@pytest.fixture
def builder_output():
    """:func:`assert_builder_output`, for the modules that build games."""
    return assert_builder_output


@pytest.fixture
def row_ids_in_product_order():
    """:func:`assert_row_ids_in_product_order`."""
    return assert_row_ids_in_product_order
