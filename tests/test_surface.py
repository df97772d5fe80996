import ast
import importlib
import inspect
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
    tree = ast.parse(inspect.getsource(twinrep))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            private = [a.name for a in node.names if a.name not in modules[node.module].__all__]
            assert not private, f"twinrep imports {private} from .{node.module}, not in its __all__"
