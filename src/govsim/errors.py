"""The package's error vocabulary.

Every error govsim raises on purpose derives from `GovsimError`, so a caller
can tell a domain failure from a bug. Each class also keeps a builtin base
(`ValueError`, `KeyError`, ...) so that a generic handler still catches it.
A class exists only where some caller tells it apart from the others.
"""
from __future__ import annotations

from typing import Sequence


class GovsimError(Exception):
    """Base of every domain error."""


class ValidationError(GovsimError, ValueError):
    """An input breaks a documented precondition (range, shape, ownership,
    uniqueness, a complete and certified assignment)."""


class NotFound(GovsimError, KeyError):
    """A lookup names something the state does not hold."""

    # KeyError would quote the message
    __str__ = Exception.__str__


class InvalidTransition(GovsimError, ValueError):
    """A state machine refuses a move, or a one-shot action is repeated."""


class BudgetExceeded(GovsimError, RuntimeError):
    """A node's token spend passed its cap."""


class CapBreached(GovsimError, RuntimeError):
    """A node's tool-call or message count passed its cap."""


class InsufficientFunds(GovsimError, RuntimeError):
    """An account cannot cover a transfer or an escrow."""


class EvidenceIntegrityError(GovsimError, RuntimeError):
    """The ledger failed verification before a post-mortem could trust it."""


class Inconclusive(GovsimError, LookupError):
    """No ledger record matches an incident's probe."""


class AmendmentRejected(GovsimError, ValueError):
    def __init__(self, rule_ids: Sequence[str]) -> None:
        super().__init__(f"amendment rejected: {sorted(rule_ids)}")
        self.rule_ids = tuple(sorted(rule_ids))


class ConfigError(GovsimError, ValueError):
    """Scenario rejected at load time; carries the offending field path."""

    def __init__(self, field_path: str, message: str) -> None:
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")
