"""Keep the suite off the real home directory.

Builds and CLI runs that pass no cache directory fall back to
``~/.cache/hwp4m``; pointing ``HOME`` at one temporary directory per session
keeps those writes out of the user's cache and out of later runs.
"""

import pytest


@pytest.fixture(autouse=True, scope="session")
def _temporary_home(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("HOME", str(tmp_path_factory.mktemp("home")))
        yield
