from __future__ import annotations

import faulthandler
import os

import pytest

import b1alg as b
from support import named_base_fleet, null_algebra, random_fleet, seeded_products

# Seconds any one test, or the collection, which builds some algebras at
# import time to parametrize tests, may run.  The slowest test takes under
# 3 s, under -X dev too, so a test past this is hung: faulthandler then writes
# every thread's traceback to the real stderr and ends the run, which fails it.
WALL_LIMIT_S = 60
_stderr = -1  # a copy of fd 2, made before any test runs


def pytest_configure(config):
    # Output capture is off outside the tests, so fd 2 is the terminal here;
    # a copy of it still reaches the terminal while a test's output is captured.
    global _stderr
    _stderr = os.dup(2)
    faulthandler.dump_traceback_later(WALL_LIMIT_S, exit=True, file=_stderr)


def pytest_collection_finish(session):
    faulthandler.cancel_dump_traceback_later()


def pytest_unconfigure(config):
    faulthandler.cancel_dump_traceback_later()
    os.close(_stderr)


@pytest.fixture(autouse=True)
def wall_limit():
    faulthandler.dump_traceback_later(WALL_LIMIT_S, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


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


@pytest.fixture(scope="session")
def products(base_fleet, full_random_fleet):
    """The 80 (left, right, left x right) of ``support.seeded_products``, built
    once.  A test that corrupts a memo takes a fresh ``direct_product`` of
    the same factors instead."""
    return seeded_products([*base_fleet.values(), *full_random_fleet])
