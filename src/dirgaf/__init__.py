"""Random Dirichlet series at criticality: simulation, limit kernels, zeros, statistics.

Import from the submodules (``dirgaf.limit_gaf``, ``dirgaf.cli``, ...);
``import dirgaf`` alone loads none of them.  No submodule imports
``scipy.stats``, and none loads ``scipy.special`` or ``mpmath`` on import:
the functions that use them import them when called, so ``import dirgaf.cli``
loads no scipy module.  ``dirgaf.cli`` loads ``scipy.special`` during config
validation for the experiments that run a chi-square or draw normals
(``nr-dist``, ``zeros-real``, ``zeros-complex``, ``lil``, ``sigma-c``);
``clt``, ``covariance`` and ``gaf-sample`` run without scipy.
``dirgaf.limit_gaf`` and ``dirgaf.series_eval`` need numpy and the standard
library only.
"""

__version__ = "0.1.0"
