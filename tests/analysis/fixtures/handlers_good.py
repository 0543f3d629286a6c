"""Known-good fixture: None-default allocation."""

from typing import Optional


def accumulate(value: float, acc: Optional[list] = None) -> list:
    if acc is None:
        acc = []
    acc.append(value)
    return acc
