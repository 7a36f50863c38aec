"""The benchmark ledger's wrapped entry points still exist in ``src``.

``perfbench/ledger.py`` traces the serving stack by patching the entry
points listed in its ``TARGETS`` table from outside the package.  A
refactor that renames or drops one of them would only surface when the
traced benchmark runs; these tests make it fail the unit suite instead.
They only read ``perfbench/``.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_LEDGER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "ledger.py"


def _load_ledger():
    spec = importlib.util.spec_from_file_location("_perfbench_ledger", _LEDGER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ledger = _load_ledger()


@pytest.mark.parametrize(
    "module_name, owner_name, attr",
    [target[:3] for target in ledger.TARGETS],
    ids=[f"{owner or module}.{attr}" for module, owner, attr, _ in ledger.TARGETS],
)
def test_target_resolves_like_the_tracer(module_name, owner_name, attr):
    # the same lookup Tracer.__init__ makes: the attribute must be defined
    # on the owner itself, not inherited or re-exported
    module = importlib.import_module(module_name)
    owner = getattr(module, owner_name) if owner_name else module
    assert attr in owner.__dict__, f"{module_name}.{owner_name or ''}.{attr}"
    assert callable(owner.__dict__[attr])

