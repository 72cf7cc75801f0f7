"""Guards on the package's value types.

Value types are `typing.NamedTuple`s: they cost a fraction of a frozen
dataclass to define at import. A NamedTuple is a tuple, so four hazards come
with it, and these tests keep them out: an empty one is falsy and equals every
other empty tuple, a field named after a tuple method hides that method,
`json` encodes one silently as a list (the pinned ledger heads in
`test_fingerprints.py` catch that), and two types with equal fields compare
equal, so tests that pin a variant compare through `helpers.same`.
"""
import dataclasses
import inspect

from govsim import adjudication, cli, economy, execution, harness, identity, ledger, legislation, money

from helpers import same

MODULES = (adjudication, cli, economy, execution, harness, identity, ledger, legislation, money)
CLASSES = [
    obj
    for module in MODULES
    for obj in vars(module).values()
    if inspect.isclass(obj) and obj.__module__ == module.__name__
]
NAMED_TUPLES = [cls for cls in CLASSES if issubclass(cls, tuple) and hasattr(cls, "_fields")]


def test_the_package_defines_named_tuples():
    assert len(NAMED_TUPLES) >= 40


def test_no_frozen_dataclass():
    assert [cls for cls in CLASSES if dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen] == []


def test_no_named_tuple_is_empty():
    assert [cls for cls in NAMED_TUPLES if not cls._fields] == []


def test_no_field_hides_a_tuple_method():
    assert [cls for cls in NAMED_TUPLES if set(cls._fields) & set(dir(tuple))] == []


def test_same_tells_variants_apart():
    fault = adjudication.ProviderFault("EP-1")
    assert fault == adjudication.InfrastructureFault("EP-1")
    assert same(fault, adjudication.ProviderFault("EP-1"))
    assert not same(fault, adjudication.InfrastructureFault("EP-1"))
