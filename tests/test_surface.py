import importlib
import pkgutil

import twinrep


def test_public_names_resolve_and_the_package_exports_only_public_names():
    modules = {
        info.name: importlib.import_module(f"twinrep.{info.name}")
        for info in pkgutil.iter_modules(twinrep.__path__)
    }
    # the package's export table is the one list of public names: a library
    # module keeps none of its own; cli's names the entry points it holds
    listed = sorted(name for name, module in modules.items() if hasattr(module, "__all__"))
    assert listed == ["cli"], f"only cli may assign __all__, not {listed}"
    missing = [n for n in modules["cli"].__all__ if not hasattr(modules["cli"], n)]
    assert not missing, f"twinrep.cli.__all__ names {missing}, which do not exist"
    # the package's lazy exports: each is that object in its module
    exports = twinrep._EXPORTS
    assert twinrep.__all__ == list(exports)
    for name, module in exports.items():
        assert getattr(twinrep, name) is getattr(modules[module], name)
    namespace = {}
    exec("from twinrep import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(exports)
    assert set(exports) | set(exports.values()) <= set(dir(twinrep))
