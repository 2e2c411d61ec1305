import importlib
import importlib.util
import pathlib

import latgauss  # noqa: F401  (loads every module the hooks name)

LAYERTRACE = pathlib.Path(__file__).resolve().parent.parent / "latbench" / "layertrace.py"


def test_layer_trace_hooks_resolve():
    # the benchmark's layer trace wraps these attributes by name, so a rename
    # in the library would silently drop a layer from a traced run
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    hooks = layertrace._hooks()
    assert hooks
    for mod_name, attr, *_ in hooks:
        owner_name, _, cls_name = mod_name.partition(".")
        owner = importlib.import_module(f"latgauss.{owner_name}")
        if cls_name:
            owner = getattr(owner, cls_name)
        assert callable(getattr(owner, attr, None)), f"{mod_name}.{attr}"
