"""Enumeration guard for operations that walk a whole group Z_m^d.

Searches and lifts enumerate up to m^d cells.  A guard caps that count so a
typo'd modulus fails fast instead of exhausting memory.  Precedence: explicit
argument, then the SPECTRATILE_GUARD environment variable, then the default.
"""

from __future__ import annotations

import os

DEFAULT_GUARD = 10_000_000
GUARD_ENV_VAR = "SPECTRATILE_GUARD"


class GuardExceeded(ValueError):
    """An operation would enumerate more cells than the guard allows."""


def resolve_guard(guard: int | None = None) -> int:
    if guard is not None:
        if guard < 1:
            raise ValueError(f"guard must be positive, got {guard}")
        return guard
    env = os.environ.get(GUARD_ENV_VAR)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{GUARD_ENV_VAR} must be an integer, got {env!r}") from None
        if value < 1:
            raise ValueError(f"{GUARD_ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_GUARD


def power_in_reach(base: int, exponent: int, bound: int) -> bool:
    """False when bit lengths alone show that base**exponent exceeds bound.

    For base, exponent >= 1: if (bit_length(base) - 1) * exponent is at least
    bit_length(bound), then base**exponent >= 2**bit_length(bound) > bound.
    Otherwise base**exponent has fewer than exponent bits more than bound,
    so comparing the two never computes a power far larger than bound.
    """
    return (base.bit_length() - 1) * exponent < bound.bit_length()


def _amount(n: int) -> str:
    # str() of an int above 4300 digits raises; a lower bound never does.
    return str(n) if n.bit_length() <= 1024 else f"at least 2**{n.bit_length() - 1}"


def check_guard(cells: int, guard: int | None = None) -> None:
    limit = resolve_guard(guard)
    if cells > limit:
        raise GuardExceeded(
            f"enumeration of {_amount(cells)} cells exceeds the guard of {_amount(limit)}"
        )


def check_power_guard(base: int, exponent: int, guard: int | None = None) -> None:
    """check_guard for the base**exponent cells of Z_base^exponent.

    The power is computed only when it is in reach of the guard, so an
    order taken from untrusted input costs no more than the guard allows.
    """
    limit = resolve_guard(guard)
    if not power_in_reach(base, exponent, limit):
        floor = (base.bit_length() - 1) * exponent
        raise GuardExceeded(
            f"enumeration of at least 2**{floor} cells exceeds the guard of {_amount(limit)}"
        )
    check_guard(base**exponent, limit)
