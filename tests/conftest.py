import pathlib

import pytest

from adtsched import parse_adt, preprocess_cases

TREES = pathlib.Path(__file__).resolve().parent.parent / "trees"


def load_tree(name):
    """Parse one of the bundled example trees."""
    return parse_adt((TREES / (name + ".adt")).read_text())


def preprocess(adt):
    """Every variant of every case of ``adt``, in one flat list."""
    return [v for c in preprocess_cases(adt, all_variants=True)
            for v in c.variants]


@pytest.fixture
def treasure():
    return load_tree("treasure")


@pytest.fixture
def forestall():
    return load_tree("forestall")
