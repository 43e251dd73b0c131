from __future__ import annotations

import random

import pytest

from ologism import data, deduce
from ologism.core import E
from .oracles import random_ologism

SAMPLE_SEED = 7
SAMPLE_SIZE = 200


@pytest.fixture(scope="session")
def sample():
    """The acceptance sample: 200 random premiss-only documents (at most 5
    types and 8 premisses each), drawn once per session from seed 7."""
    rng = random.Random(SAMPLE_SEED)
    return [random_ologism(rng) for _ in range(SAMPLE_SIZE)]


@pytest.fixture(scope="session")
def animals():
    return data.load("animals")


@pytest.fixture(scope="session")
def custodian():
    return data.load("custodian")


@pytest.fixture(scope="session")
def has_mother():
    return data.load("has_mother")


@pytest.fixture(scope="session")
def mother_ologism():
    return data.load("mother_ologism")


@pytest.fixture(scope="session")
def family_model():
    return data.load_model("has_mother")


@pytest.fixture(scope="session")
def custodian_model():
    return data.load_model("custodian")


@pytest.fixture(scope="session")
def animals_model():
    return data.load_model("animals")


@pytest.fixture
def unsound_close(monkeypatch):
    """``deduce.derivable``, the set the oracle and ``check`` read, made
    unsound: every closure also claims E(M,V), which some model of the
    animals document refutes."""
    real_derivable = deduce.derivable

    def derivable_with_e_m_v(doc, *args, **kwargs):
        return real_derivable(doc, *args, **kwargs) | {E("M", "V")}

    monkeypatch.setattr(deduce, "derivable", derivable_with_e_m_v)
