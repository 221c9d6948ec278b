"""Twin-simulation laboratory for Vlasov-Poisson stability estimates.

Lagrangian particle flows of the Vlasov-Poisson system are run in pairs
from an identical initial sample, and the quantitative estimates behind
the optimal-transport uniqueness argument (Wasserstein field stability,
the feasible-plan bounds, the Q(t) differential inequality, the Osgood
envelope) are certified numerically at desk scale. The geodesic sup-norm
bound is not certified: it holds on the grid only up to a small
discretisation excess, and the test suite checks it on two fixtures
(acceptance criterion 03).
"""

__version__ = "0.1.0"
