import inspect
import typing

import sc2combat

# Exports whose annotations name a type the package does not import at
# module level, each with its reason.
UNRESOLVED = {
    "ExactDistribution": "fractions is imported only where an exact run needs it",
}


def annotations_resolve(export) -> bool:
    """Whether ``export``'s signature shows evaluated types, not strings or
    ForwardRefs, and ``typing.get_type_hints`` can resolve them all.
    Constants and exception classes, which have no signature, pass."""
    if not callable(export) or isinstance(export, type) and issubclass(export, Exception):
        return True
    signature = inspect.signature(export)
    annotations = [p.annotation for p in signature.parameters.values()]
    if any(isinstance(annotation, (str, typing.ForwardRef))
           for annotation in (*annotations, signature.return_annotation)):
        return False
    try:
        typing.get_type_hints(export)
    except NameError:
        return False
    return True


def test_every_export_resolves():
    assert len(set(sc2combat.__all__)) == len(sc2combat.__all__)
    unresolved = {name for name in sc2combat.__all__
                  if not annotations_resolve(getattr(sc2combat, name))}
    # a subset: Python 3.10's get_type_hints leaves a str inside dict[...] unresolved
    assert unresolved <= UNRESOLVED.keys(), unresolved
