"""Random Dirichlet series at criticality: simulation, limit kernels, zeros, statistics.

Import from the submodules (``dirgaf.limit_gaf``, ``dirgaf.cli``, ...);
``import dirgaf`` alone loads none of them.  No submodule imports
``scipy.stats`` or ``mpmath`` at module level: the two functions of
``dirgaf.stats_harness`` that need them import them when called.
"""

__version__ = "0.1.0"
