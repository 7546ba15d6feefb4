"""Each test module starts from an empty H_D cache, so that no module sees
a class polynomial that an earlier module left behind (a traced call to
hilbert_class_poly, for instance, must evaluate j itself)."""

import pytest

from cmreduce.classpoly import hilbert_class_poly


@pytest.fixture(autouse=True, scope="module")
def _fresh_class_polynomial_cache():
    yield
    hilbert_class_poly.cache_clear()
