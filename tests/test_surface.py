import importlib
import pkgutil

import twinrep


def test_public_names_resolve_and_the_package_exports_only_public_names():
    modules = {
        info.name: importlib.import_module(f"twinrep.{info.name}")
        for info in pkgutil.iter_modules(twinrep.__path__)
    }
    for name, module in modules.items():
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"twinrep.{name}.__all__ names {missing}, which do not exist"
    # the package's lazy exports: each is public in its module and is that object
    exports = twinrep._EXPORTS
    assert twinrep.__all__ == list(exports)
    for name, module in exports.items():
        assert name in modules[module].__all__, f"twinrep exports {name}, not in .{module}'s __all__"
        assert getattr(twinrep, name) is getattr(modules[module], name)
    namespace = {}
    exec("from twinrep import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(exports)
    assert set(exports) | set(exports.values()) <= set(dir(twinrep))
