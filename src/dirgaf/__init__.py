"""Random Dirichlet series at criticality: simulation, limit kernels, zeros, statistics.

Import from the submodules (``dirgaf.limit_gaf``, ``dirgaf.cli``, ...);
``import dirgaf`` alone loads none of them.  No submodule imports
``scipy.stats``; ``mpmath`` is imported by the one function of
``dirgaf.stats_harness`` that needs it, when called.
"""

__version__ = "0.1.0"
