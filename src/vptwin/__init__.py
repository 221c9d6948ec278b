"""Twin-simulation laboratory for Vlasov-Poisson stability estimates.

Lagrangian particle flows of the Vlasov-Poisson system are run in pairs
from an identical initial sample, and the quantitative estimates behind
the optimal-transport uniqueness argument (Wasserstein field stability,
geodesic sup-norm bound, the Q(t) differential inequality, the Osgood
envelope) are certified numerically at desk scale.
"""

__version__ = "0.1.0"
