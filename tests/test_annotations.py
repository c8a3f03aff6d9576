"""Every annotation in the package names something that exists.

The modules use ``from __future__ import annotations``, so a stale name in
an annotation fails only when something resolves it.  No name checker runs
on the package, so this test resolves them all.
"""

import importlib
import inspect
import pkgutil
import typing

import lowrank_bandits


def annotated_objects(module):
    """The functions and classes ``module`` defines, and the methods and
    property getters of those classes."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                if isinstance(member, property):
                    member = member.fget
                member = getattr(member, "__func__", member)  # static and class methods
                if inspect.isfunction(member):
                    yield member


def test_every_annotation_resolves():
    failures = []
    for info in pkgutil.iter_modules(lowrank_bandits.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"lowrank_bandits.{info.name}")
        for obj in annotated_objects(module):
            try:
                typing.get_type_hints(obj)
            except Exception as error:
                failures.append(f"{module.__name__}.{obj.__qualname__}: {error!r}")
    assert failures == []
