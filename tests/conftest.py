"""Shared fixtures: small corpora and trained components, built once.

``HYPOTHESIS_PROFILE=ci`` selects derandomized property tests: each test
draws the same examples on every run.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.data.spider import build_spider
from repro.schema.database import Database
from repro.schema.schema import NUMBER, Column, ForeignKey, Schema, Table

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def world_db() -> Database:
    """The paper's running example: Country / CountryLanguage."""
    schema = Schema(
        db_id="world",
        tables=(
            Table(
                "country",
                (
                    Column("code"),
                    Column("name"),
                    Column("continent"),
                    Column("population", NUMBER),
                ),
            ),
            Table(
                "countrylanguage",
                (
                    Column("countrycode"),
                    Column("language"),
                    Column("isofficial"),
                    Column("percentage", NUMBER),
                ),
            ),
        ),
        foreign_keys=(
            ForeignKey("countrylanguage", "countrycode", "country", "code"),
        ),
    )
    db = Database(schema)
    db.insert_many(
        "country",
        [
            {"code": "ABW", "name": "Aruba", "continent": "North America",
             "population": 103000},
            {"code": "AFG", "name": "Afghanistan", "continent": "Asia",
             "population": 22720000},
            {"code": "AIA", "name": "Anguilla", "continent": "North America",
             "population": 8000},
            {"code": "BMU", "name": "Bermuda", "continent": "North America",
             "population": 65000},
            {"code": "CHE", "name": "Switzerland", "continent": "Europe",
             "population": 7160400},
        ],
    )
    db.insert_many(
        "countrylanguage",
        [
            {"countrycode": "ABW", "language": "Dutch", "isofficial": "T",
             "percentage": 5.3},
            {"countrycode": "ABW", "language": "English", "isofficial": "F",
             "percentage": 9.5},
            {"countrycode": "AFG", "language": "Dari", "isofficial": "T",
             "percentage": 32.1},
            {"countrycode": "AFG", "language": "Pashto", "isofficial": "T",
             "percentage": 52.4},
            {"countrycode": "BMU", "language": "English", "isofficial": "T",
             "percentage": 100.0},
        ],
    )
    return db


def build_tiny_benchmark():
    """A small but complete SpiderSim benchmark (fast to build)."""
    return build_spider(seed=11, train_per_domain=30, dev_per_domain=6)


def train_small_pipeline(benchmark):
    """Train the small lgesql MetaSQL pipeline the integration tests share."""
    from repro.core.classifier import ClassifierConfig
    from repro.core.pipeline import MetaSQL, MetaSQLConfig
    from repro.models.registry import create_model

    config = MetaSQLConfig(
        ranker_train_questions=90,
        classifier=ClassifierConfig(epochs=25),
    )
    pipe = MetaSQL(create_model("lgesql"), config)
    pipe.train(benchmark.train)
    return pipe


@pytest.fixture(scope="session")
def tiny_benchmark():
    """A small but complete SpiderSim benchmark (fast to build)."""
    return build_tiny_benchmark()


@pytest.fixture(scope="session")
def fitted_lgesql(tiny_benchmark):
    from repro.models.registry import create_model

    model = create_model("lgesql")
    model.fit(tiny_benchmark.train)
    return model


@pytest.fixture(scope="session")
def trained_pipeline(tiny_benchmark):
    """One trained MetaSQL pipeline shared across integration tests."""
    return train_small_pipeline(tiny_benchmark)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
