"""Parity game toolkit: minimisation by strong bisimilarity and
divergence-sensitive stuttering equivalence, complete solvers, and lifting
of quotient strategies back to the original game."""

from .game import (
    EVEN,
    ODD,
    Game,
    Solution,
    Strategy,
    VerifyResult,
    convert_priorities,
    verify_strategy,
)
from .generators import gen_chain, gen_random
from .io import FormatError, parse_pgsolver, parse_solution, write_pgsolver, write_solution
from .reduction import (
    Partition,
    lift_solution,
    quotient,
    refine_strong,
    refine_stuttering,
    write_partition,
)
from .solvers import solve

__version__ = "0.1.0"

__all__ = [
    "EVEN",
    "ODD",
    "Game",
    "Strategy",
    "Partition",
    "Solution",
    "VerifyResult",
    "FormatError",
    "convert_priorities",
    "parse_pgsolver",
    "write_pgsolver",
    "parse_solution",
    "write_solution",
    "refine_strong",
    "refine_stuttering",
    "quotient",
    "write_partition",
    "solve",
    "lift_solution",
    "verify_strategy",
    "gen_random",
    "gen_chain",
]
