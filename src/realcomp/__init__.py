"""Exact real computation workbench.

Computable real functions as interval-query machines over exact
rationals, plus what they support: refinement to arbitrary accuracy,
semi-decision of open predicates, certified domain neighborhoods,
representation equivalences over the naturals, effectively enumerable
relations over the reals, and discrete probabilistic algorithms with
exact rational masses.

Each module's ``__all__`` is the one list of its public names.
"""

from .rational import *
from .machine import *
from .oracle import *
from .natrel import *
from .relation import *
from .prob import *
from .speclang import *

__version__ = "0.1.0"
