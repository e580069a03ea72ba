"""Resource bounds.

Every limit that refuses a run is a constant here, with its unit, and every
refusal is one `charge` call, which raises BoundExceededError (exit 3).  The
limits are fixed, except two that the environment can set process-wide:
EPPA_MAX_POINTS overrides the default input-structure bound,
EPPA_MAX_VALUED_POINTS the bound on the valuation extension size.
"""

from __future__ import annotations

import os

from .errors import BoundExceededError, EppaError

DEFAULT_MAX_POINTS = 12            # points of a structure whose Part(A) is listed
PART_MAX_MAPS = 500_000            # maps of Part(A), counted as they are listed
DEFAULT_MAX_VALUED_POINTS = 20000  # points of the valued extension C
DEFAULT_AUT_DEGREE_BOUND = 10      # points of a structure whose Aut is searched
VALUED_MAX_COMBINATIONS = 2_000_000  # candidate tuples of C, over all tuples of B
SCAFFOLD_MAX_ENTRIES = 4_000_000   # lookup-table entries of the scaffold's completions
SCAFFOLD_MAX_POINTS = 200_000      # points of the scaffold's orbit
SCAFFOLD_MAX_COST = 20_000_000     # tuple checks: len(Part(A)) x cells of the orbit
CLIQUE_MAX_POINTS = 1_000_000      # points, summed over the cliques listed
ENUMERATION_MAX_SLOTS = 20         # relation slots of the largest size enumerated

# minimal-extension search budget inside base_eppa: these skip the search
# (the scaffold answers instead), they refuse nothing
SEARCH_MAX_SIZE = 5          # points: run the search only for inputs this small
SEARCH_TARGET_SIZE = 6       # points: never propose extensions beyond this many
SEARCH_MAX_PART = 400        # maps: skip the search when Part(A) is larger
SEARCH_MAX_GRAPH_SLOTS = 16  # edge slots: skip a graph's extension size with more
SEARCH_MAX_SLOTS = 14        # tuple slots: skip another input's extension size with more


def charge(what: str, count: int, unit: str, bound: int) -> None:
    """Refuse `what` when it needs more than `bound` of `unit`."""
    if count > bound:
        raise BoundExceededError(f"{what} needs {count} {unit}, over the bound {bound}")


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
