from __future__ import annotations

import pytest

import b1alg as b
from support import named_base_fleet, null_algebra, random_fleet


@pytest.fixture(scope="session")
def b1():
    return b.builtin("b1")


@pytest.fixture(scope="session")
def ex62():
    return b.builtin("example-6-2")


@pytest.fixture(scope="session")
def chain4():
    return b.chain_algebra(4)


@pytest.fixture(scope="session")
def base_fleet():
    return named_base_fleet()


@pytest.fixture(scope="session")
def small_random_fleet():
    # A taster of the acceptance fleet for the unit-level property tests.
    return random_fleet(count=40, seed=7)


@pytest.fixture(scope="session")
def full_random_fleet():
    return random_fleet(count=200)


@pytest.fixture(scope="session")
def past_order_six():
    ex62 = b.builtin("example-6-2")
    return [
        b.builtin("bool-5"),
        b.chain_algebra(24),
        null_algebra(5),
        b.direct_product(ex62, b.chain_algebra(3)),  # order 18
    ]
