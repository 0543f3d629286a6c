"""Floating-point folds whose bits are pinned: the exact closed form of a
repeated add, and a left sum that does not depend on the Python version.

Lazy accrual (:meth:`repro.cluster.topology.Server.advance`, the sOA's
wear ledger) defers ``count`` identical ticks and later folds them into
an accumulator.  The eager reference adds the per-tick increment once
per tick, and float addition does not reassociate, so ``acc + n * inc``
is *not* what the eager loop returns.  :func:`repeat_add` returns what
the loop returns, bit for bit, in a few operations per binade the sum
crosses instead of one add per tick.

Why it is exact (IEEE-754 double, round-to-nearest-even — CPython's
``float``; finite operands with ``acc >= 0`` and ``inc >= 0``):

* **Inside one binade the step is fixed.**  In a binade
  ``[2**e, 2**(e+1))`` every float is a multiple of the binade's ulp
  ``u = 2**(e-52)`` (below ``2**-1021``, of the subnormal spacing
  ``2**-1074``), and so is the running sum.  Each add rounds the exact
  ``acc + inc`` onto that grid, so while the result stays in the binade
  it moves the sum by ``inc`` rounded to a multiple of ``u`` — the same
  step from every ``acc``, unless ``inc`` is a tie.
* **Ties settle after one add.**  When ``inc`` sits exactly half an ulp
  between two grid steps, the add rounds to the even neighbour, so the
  step depends on the parity of ``acc`` — but the result is even, and
  every later add in the binade starts from an even sum.  Hence, once two
  consecutive adds inside one binade moved the sum by the same step
  ``q``, every further add in that binade moves it by ``q``.
* **Jump inside the binade.**  The kernel then performs ``j`` adds at
  once as ``acc + j * q``, with ``j`` chosen to stop a few adds short of
  the binade top.  ``j * q`` and ``acc + j * q`` are integers below
  ``2**53`` times ``u``, so both are exact.  Real adds then cross the
  edge and re-establish the step in the next binade: a handful of
  operations per binade crossed, and a week of 30 s ticks from zero
  crosses about 15-20 binades.
* **Fixed point.**  An add that leaves the sum unchanged (``inc`` below
  half an ulp, or a tie from an even sum) leaves it unchanged forever;
  the kernel returns at once.  That add's result is returned, not the
  operand, so the sign of a zero sum is the loop's.

Outside the domain — a negative, infinite or NaN operand, or a sum that
could approach the overflow threshold — the kernel runs the plain loop.

:func:`left_sum` is the other fold here: ``sum()`` of floats as CPython
3.11 and earlier compute it, one rounded add at a time from ``0.0``.
From 3.12 on, ``sum()`` of floats is compensated (Neumaier), so
``sum([1.0, 1e100, 1.0, -1e100])`` is ``0.0`` on 3.11 and ``2.0`` on
3.12; a result that must not depend on the interpreter's version folds
its floats with :func:`left_sum`.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from math import frexp, ldexp
from operator import add
from typing import Iterable

__all__ = ["MIN_CLOSED_FORM_RUN", "left_sum", "repeat_add"]

#: Runs shorter than this keep the callers' inline add loop.  Measured on
#: CPython 3.11.7 (one core of a 2-CPU x86-64 VM), n plain adds and one
#: :func:`repeat_add` call break even at 32 adds (0.4 us each); at 100
#: adds the call is ~2x faster, at 3000 over 20x.
MIN_CLOSED_FORM_RUN = 32

# The largest sum the closed form handles: binade tops above it would
# overflow ``ldexp``, and there the plain loop is cheap to keep exact.
_MAX_SUM = 2.0 ** 1000


def repeat_add(acc: float, inc: float, n: int) -> float:
    """Return ``acc`` after ``n`` repetitions of ``acc += inc``, bit for bit.

    See the module docstring for why the closed form is exact.  The plain
    loop runs for operands outside its domain.
    """
    if not (0.0 <= acc and 0.0 <= inc and acc + n * inc < _MAX_SUM):
        for _ in repeat(None, n):
            acc += inc
        return acc
    top = 0.0    # exclusive upper edge of acc's binade (0.0: not yet known)
    step = -1.0  # the last in-binade step, -1.0 when there is none
    while n > 0:
        nxt = acc + inc
        n -= 1
        if nxt == acc:
            return nxt
        if nxt < top:
            q = nxt - acc  # exact (Sterbenz): both lie in one binade
            if q == step:
                # (top - nxt) is exact; the rounded quotient may be one
                # too large, so a margin of two keeps every jumped sum,
                # and the grid point above it, at or below the top.
                jump = min(n, int((top - nxt) / q) - 2)
                if jump > 0:
                    nxt += jump * q
                    n -= jump
            step = q
        else:
            top = ldexp(1.0, frexp(nxt)[1])
            step = -1.0
        acc = nxt
    return acc


def left_sum(values: Iterable[float]) -> float:
    """``((0.0 + v0) + v1) + ...``: the uncompensated left fold — for float
    values, bit for bit what ``sum(values)`` returns on CPython 3.11 — on
    every Python version.

    It starts at ``0.0`` as ``sum()`` starts at ``0``, so an empty input
    gives ``0.0`` and ``[-0.0]`` gives ``+0.0``.
    """
    return reduce(add, values, 0.0)
