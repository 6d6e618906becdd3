"""Value-pool helper tests."""

import numpy as np

from repro.data import values as V


class TestPools:
    def test_pools_nonempty(self):
        for pool in (
            V.PERSON_FIRST, V.PERSON_LAST, V.CITIES, V.COUNTRIES,
            V.LANGUAGES, V.GENRES, V.PET_TYPES, V.MAJORS,
        ):
            assert len(pool) >= 5

    def test_sample_deterministic(self):
        a = V.sample(V.CITIES, np.random.default_rng(3))
        b = V.sample(V.CITIES, np.random.default_rng(3))
        assert a == b

    def test_person_name_two_parts(self):
        name = V.person_name(np.random.default_rng(0))
        assert len(name.split()) == 2
