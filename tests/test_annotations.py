"""Every annotation in ``repro`` resolves.

Modules use ``from __future__ import annotations``, so an annotation
naming something never imported (``Optional`` without its import, say)
is a string nobody evaluates — until a type checker, ``dataclasses`` or
``typing.get_type_hints`` does.  Resolve them all here.
"""

import importlib
import inspect
import pkgutil
import typing

import repro


def defined_functions():
    """``(qualified name, function)`` for every function and method
    defined in a ``repro`` module, properties' accessors included."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    accessors = (
                        [member.fget, member.fset, member.fdel]
                        if isinstance(member, property)
                        else [member]
                    )
                    for function in accessors:
                        # (generated members, e.g. a NamedTuple's
                        # ``__new__``, belong to no repro module)
                        if (
                            inspect.isfunction(function)
                            and function.__module__ == module.__name__
                        ):
                            yield f"{module.__name__}.{name}.{attr}", function


def test_every_annotation_in_repro_resolves():
    functions = list(defined_functions())
    unresolved = []
    for name, function in functions:
        try:
            typing.get_type_hints(function)
        except (NameError, AttributeError, TypeError, SyntaxError) as error:
            unresolved.append(f"{name}: {error!r}")
    assert len(functions) > 500  # the walk reached the whole package
    assert unresolved == []
