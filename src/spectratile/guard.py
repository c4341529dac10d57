"""Enumeration guard for operations that walk a whole group Z_m^d.

Searches and lifts enumerate up to m^d cells.  A guard caps that count so a
typo'd modulus fails fast instead of exhausting memory.  Precedence: explicit
argument, then the SPECTRATILE_GUARD environment variable, then the default.

The exact-cover search (tiling.decide_m_tile and replay_search) holds k
copies of the group for a k-point set, in its stack of difference shapes
and in each row.  So it counts k * m^d cells against the same guard, after
m^d and before it builds anything.
"""

from __future__ import annotations

import operator
import os

from .modlinalg import _decimal

DEFAULT_GUARD = 10_000_000
GUARD_ENV_VAR = "SPECTRATILE_GUARD"
# A count of at most this many bits is cheap to compute and to print exactly;
# str() of an int above 4300 digits raises.
_EXACT_BITS = 1024


class GuardExceeded(ValueError):
    """An operation would enumerate more cells than the guard allows."""


def resolve_guard(guard: int | None = None) -> int:
    """The guard in force.  An explicit guard must be an integer, as
    operator.index takes it; the variable is read by the rule of the matrix
    files and of --guard, -?[0-9]+ in ASCII digits."""
    if guard is not None:
        guard = operator.index(guard)
        if guard < 1:
            raise ValueError(f"guard must be positive, got {guard}")
        return guard
    env = os.environ.get(GUARD_ENV_VAR)
    if env is not None:
        try:
            value = _decimal(env)
        except ValueError:
            raise ValueError(f"{GUARD_ENV_VAR} must be a decimal integer, got {env!r}") from None
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
    return str(n) if n.bit_length() <= _EXACT_BITS else f"at least 2**{n.bit_length() - 1}"


def check_guard(cells: int, guard: int | None = None) -> None:
    _within(cells, resolve_guard(guard))


def _within(cells: int, limit: int) -> None:
    """check_guard under a resolved limit."""
    if cells > limit:
        raise GuardExceeded(
            f"enumeration of {_amount(cells)} cells exceeds the guard of {_amount(limit)}"
        )


def check_power_guard(base: int, exponent: int, guard: int | None = None) -> None:
    """check_guard for the base**exponent cells of Z_base^exponent.

    The power is computed only when it has at most _EXACT_BITS bits, so the
    refusal names the exact count, or when it is in reach of the guard, so
    an order taken from untrusted input costs no more than the guard allows.
    The guard is resolved once.
    """
    if base.bit_length() * exponent > _EXACT_BITS:
        return _power_within(base, exponent, resolve_guard(guard))
    check_guard(base**exponent, guard)


def _power_within(base: int, exponent: int, limit: int) -> None:
    """check_power_guard under a resolved limit."""
    if base.bit_length() * exponent > _EXACT_BITS and not power_in_reach(base, exponent, limit):
        floor = (base.bit_length() - 1) * exponent
        raise GuardExceeded(
            f"enumeration of at least 2**{floor} cells exceeds the guard of {_amount(limit)}"
        )
    _within(base**exponent, limit)
