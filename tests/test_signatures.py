"""Only the two calls that build H take the |H| cap.

The cap is checked once, on |det I|, where the group is built; every
enumeration below that point runs over a group already known to be small
enough, so no other callable may take a `max_order` parameter.
"""

import importlib
import inspect
import pkgutil

import swplumb

CAP_TAKERS = {"swplumb.homology.homology_from_lattice", "swplumb.report.compute_report"}


def package_callables():
    """(qualified name, object) for every function and method the package defines.

    Cached functions count as functions; a class counts through the methods
    it defines, its constructor among them.
    """
    for info in pkgutil.iter_modules(swplumb.__path__):
        module = importlib.import_module(f"swplumb.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__ or not callable(obj):
                continue
            if not inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                continue
            for attr in vars(obj):
                member = getattr(obj, attr)
                if callable(member) and not inspect.isclass(member):
                    yield f"{module.__name__}.{name}.{attr}", member


def test_only_the_group_builders_take_max_order():
    names = dict(package_callables())
    exported = {f"{obj.__module__}.{name}" for name, obj in vars(swplumb).items()
                if callable(obj) and not inspect.isclass(obj)}
    assert exported <= set(names)
    assert {"swplumb.homology.FinAbGroup.characters",
            "swplumb.homology.FinAbGroup.elements",
            "swplumb.torsion.TorsionTable.invert"} <= set(names)
    takers = {name for name, obj in names.items()
              if "max_order" in inspect.signature(obj).parameters}
    assert takers == CAP_TAKERS
