"""Maximum disjoint set covers, offline and online.

An instance is a universe {0,..,n-1} plus a sequence of subsets; the goal
is to partition the subsets into as many groups as possible whose unions
each cover the universe.  The API is the modules: ``core`` (types, parser,
cover counting), ``online``, ``offline``, ``adversary`` and ``cli``.
"""

# kept because perfbench's tests expect ``dscp.count_covers`` as a binding site
from .core import count_covers

__version__ = "0.1.0"
