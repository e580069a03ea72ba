"""Resource bounds.

The limits are fixed constants, except two that the environment can set
process-wide: EPPA_MAX_POINTS overrides the default input-structure bound,
EPPA_MAX_VALUED_POINTS the bound on the valuation extension size.
"""

from __future__ import annotations

import os

from .errors import EppaError

DEFAULT_MAX_POINTS = 12
DEFAULT_MAX_VALUED_POINTS = 20000
DEFAULT_AUT_DEGREE_BOUND = 10

# minimal-extension search budget inside base_eppa
SEARCH_MAX_SIZE = 5          # run the search only for inputs this small
SEARCH_TARGET_SIZE = 6       # never propose extensions beyond this many points
SEARCH_MAX_PART = 400        # skip the search when Part(A) is larger


def max_points() -> int:
    return _env_int("EPPA_MAX_POINTS", DEFAULT_MAX_POINTS)


def max_valued_points() -> int:
    return _env_int("EPPA_MAX_VALUED_POINTS", DEFAULT_MAX_VALUED_POINTS)


def _env_int(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise EppaError(f"{name} must be an integer, got {text!r}") from None
