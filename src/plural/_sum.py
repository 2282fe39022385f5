"""A float sum with the same bits on every supported Python.

Python 3.12 made builtin `sum` of floats compensated, so the same values
can sum to a different last bit than on 3.10 and 3.11. Totals that reach
an artifact go through `left_sum` instead.
"""

import functools
import operator
from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """0 + v1 + v2 + ..., added left to right: builtin `sum` before 3.12."""
    return functools.reduce(operator.add, values, 0)
