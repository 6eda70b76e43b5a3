"""Shared fixtures.

The expensive artefacts (study run, governance simulation, synthetic
web, figure pipelines) are session-scoped: they are deterministic, so
sharing them across tests changes nothing but wall-clock time.
"""

from __future__ import annotations

import pytest

from repro.data import (
    build_category_database,
    build_rws_history,
    build_rws_list,
    build_site_catalog,
)
from repro.governance import simulate_governance
from repro.netsim import Client
from repro.psl import default_psl
from repro.survey import conduct_study
from repro.webgen import build_web_for_catalog


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a test that runs a full simulation (tens of "
                   "seconds)")


@pytest.fixture(scope="session")
def psl():
    return default_psl()


@pytest.fixture(scope="session")
def rws_list():
    return build_rws_list()


@pytest.fixture(scope="session")
def rws_history():
    return build_rws_history()


@pytest.fixture(scope="session")
def catalog():
    return build_site_catalog()


@pytest.fixture(scope="session")
def category_db(catalog):
    return build_category_database(catalog)


@pytest.fixture(scope="session")
def synthetic_web(catalog, rws_list):
    return build_web_for_catalog(catalog, rws_list, seed=7)


@pytest.fixture(scope="session")
def web_client(synthetic_web):
    return Client(synthetic_web)


@pytest.fixture(scope="session")
def study_dataset():
    return conduct_study()


@pytest.fixture(scope="session")
def pr_dataset():
    return simulate_governance()
