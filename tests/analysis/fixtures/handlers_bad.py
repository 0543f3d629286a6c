"""Known-bad fixture: a mutable default argument."""


def accumulate(value: float, acc: list = []) -> list:   # line 4: handler-hygiene
    acc.append(value)
    return acc
