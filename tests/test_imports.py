"""Every submodule is reachable by its own dotted name."""

import pkgutil
import sys

import pytest

import mocorr

SUBMODULES = sorted(info.name for info in
                    pkgutil.walk_packages(mocorr.__path__, "mocorr."))


@pytest.mark.parametrize("name", SUBMODULES)
def test_import_as_binds_the_module(name):
    # `import a.b as m` reads attribute b of package a, so a name the
    # package's __init__ binds would shadow the submodule
    namespace = {}
    exec(f"import {name} as m", namespace)
    assert namespace["m"] is sys.modules[name]
