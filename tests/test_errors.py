"""Guards on the package's error vocabulary: one base, one module, one name
per class, so a caller can catch every domain error as `GovsimError` and no
two classes can be confused by name."""
import importlib
import inspect
import pkgutil

import govsim
from govsim.errors import GovsimError

MODULES = [importlib.import_module(f"govsim.{info.name}") for info in pkgutil.iter_modules(govsim.__path__)]
ERRORS = [
    obj
    for module in MODULES
    for obj in vars(module).values()
    if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
]


def test_every_error_derives_from_the_base():
    assert ERRORS
    assert [cls.__qualname__ for cls in ERRORS if not issubclass(cls, GovsimError)] == []


def test_no_two_errors_share_a_name():
    names = [cls.__name__ for cls in ERRORS]
    assert len(names) == len(set(names))


def test_every_error_lives_in_the_errors_module():
    assert [f"{cls.__module__}.{cls.__qualname__}" for cls in ERRORS if cls.__module__ != "govsim.errors"] == []
    assert govsim.GovsimError is GovsimError
