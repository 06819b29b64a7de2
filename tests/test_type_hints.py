"""Every annotation in ``src/qres`` resolves.

The modules use ``from __future__ import annotations``, so an annotation
naming a type its module never imports only fails when something evaluates
it.  ``typing.get_type_hints`` evaluates them all, on every function and
method the package defines (through ``lru_cache`` wrappers, properties and
class or static methods).
"""

import functools
import importlib
import inspect
import pkgutil
import typing

import qres


def _own(obj, module):
    return getattr(obj, "__module__", None) == module.__name__


def _functions(module):
    for obj in vars(module).values():
        obj = inspect.unwrap(obj) if callable(obj) else obj
        if inspect.isfunction(obj) and _own(obj, module):
            yield obj
        elif inspect.isclass(obj) and _own(obj, module):
            for attr in vars(obj).values():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                elif isinstance(attr, property):
                    attr = attr.fget
                elif isinstance(attr, functools.cached_property):
                    attr = attr.func
                if inspect.isfunction(attr):
                    yield attr


def test_every_annotation_in_the_package_resolves():
    checked, failed = 0, []
    for info in pkgutil.iter_modules(qres.__path__):
        module = importlib.import_module(f"qres.{info.name}")
        for fn in _functions(module):
            checked += 1
            try:
                typing.get_type_hints(fn)
            except NameError as exc:
                failed.append(f"{module.__name__}.{fn.__qualname__}: {exc}")
    assert checked > 100
    assert failed == []
