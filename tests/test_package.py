"""``import tmlab as tm`` exposes each library module's ``__all__``, and
nothing else but the modules themselves."""

import importlib

import tmlab as tm

LIBRARY = ("core", "functions", "means", "bounds", "lie_trotter", "data_processing")


def test_package_names_are_the_library_modules_all():
    modules = [importlib.import_module(f"tmlab.{name}") for name in LIBRARY]
    # ``harness`` and ``cli`` stay submodules; importing one elsewhere in
    # this process binds it on the package.
    public = {name for name in vars(tm) if not name.startswith("_")} - {"harness", "cli"}
    assert public == set(LIBRARY).union(*(module.__all__ for module in modules))
    for module in modules:
        assert all(getattr(tm, name) is getattr(module, name) for name in module.__all__), module.__name__
    assert tm.NotPositiveDefiniteError is tm.core.NotPositiveDefiniteError
