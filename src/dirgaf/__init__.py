"""Random Dirichlet series at criticality: simulation, limit kernels, zeros, statistics.

Import from the submodules (``dirgaf.limit_gaf``, ``dirgaf.cli``, ...);
``import dirgaf`` alone loads none of them.  No submodule imports
``scipy.stats``; ``mpmath`` is imported by the one function of
``dirgaf.stats_harness`` that needs it, when called.  ``scipy.special`` is
loaded by ``dirgaf.stats_harness`` and ``dirgaf.kolmogorov`` on import, and
by ``dirgaf.coeff_models`` on its first draw of normals; ``dirgaf.limit_gaf``
and ``dirgaf.series_eval`` need numpy and the standard library only, so the
GAF samplers run without scipy.
"""

__version__ = "0.1.0"
