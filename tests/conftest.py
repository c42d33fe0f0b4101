"""Keep the suite off the real home directory.

Builds and CLI runs that pass no cache directory fall back to
``~/.cache/hwp4m``; pointing ``HOME`` at one temporary directory per session
keeps those writes out of the user's cache and out of later runs.
"""

import sys

import pytest

from hwp4m import blocks, verifier


@pytest.fixture(autouse=True, scope="session")
def _temporary_home(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("HOME", str(tmp_path_factory.mktemp("home")))
        yield


@pytest.fixture
def certify_calls(monkeypatch):
    """The argument tuples of every ``verifier.certifies`` call the test
    makes, counted in every module that imported the proof by name."""
    certifies, calls = verifier.certifies, []

    def counted(*args):
        calls.append(args)
        return certifies(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("hwp4m.") and getattr(module, "certifies", None) is certifies:
            monkeypatch.setattr(module, "certifies", counted)
    return calls


@pytest.fixture
def unbent_cm_block():
    """``cm_block`` built without the wrap-around bend, from base layers
    x^i at every part: broken for m = 1 (mod 3), the block the bend fixes."""

    def build(m):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(blocks, "gf4_base_layers", lambda m: [1 + i % 3 for i in range(m)])
            return blocks.cm_block(m)

    return build
