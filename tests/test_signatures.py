"""Only the two calls that build H take the |H| cap; only three take a spin^c offset.

The cap is checked once, on |det I|, where the group is built; every
enumeration below that point runs over a group already known to be small
enough, so no other callable may take a `max_order` parameter.

The torsion transform is computed once, for the canonical structure, and a
spin^c offset h_sigma is a point at which it is evaluated.  So `h_sigma` is a
parameter only where it names that point, never of the transform itself.
"""

import importlib
import inspect
import pkgutil

import swplumb

CAP_TAKERS = {"swplumb.homology.homology_from_lattice", "swplumb.report.compute_report"}
OFFSET_TAKERS = {"swplumb.seifert.seifert_torsion_shortcut",
                 "swplumb.homology.spinc_quadratic",
                 "swplumb.homology.spinc_conjugate"}


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


def test_only_the_evaluation_points_take_h_sigma():
    names = dict(package_callables())
    assert {"swplumb.torsion.torsion_table", "swplumb.torsion.TorsionTable.at",
            "swplumb.torsion.orbit_table"} <= set(names)
    takers = {name for name, obj in names.items()
              if "h_sigma" in inspect.signature(obj).parameters}
    assert takers == OFFSET_TAKERS
