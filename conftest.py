"""Every test, under ``tests/`` and ``bench/tests/`` alike, starts with no
``QMAXCUT_QUBIT_CAP``: a cap set in the shell would refuse the instances the
tests size against the default.  A test that needs a cap sets it itself."""

import pytest


@pytest.fixture(autouse=True)
def _default_qubit_cap(monkeypatch):
    monkeypatch.delenv("QMAXCUT_QUBIT_CAP", raising=False)
