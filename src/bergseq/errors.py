"""Exception types shared across the library."""


class BergseqError(Exception):
    """Base class for all library errors."""


class DomainViolation(BergseqError):
    """A point lies outside the domain required by the operation."""


class QuadratureNotConverged(BergseqError):
    """Refinement reached the node cap before the estimate settled.

    Carries the last two estimates, so callers can judge how far off the
    result is, and the discretization of the last level run: its radial
    panels, its angular nodes and its node count.  Every level has angles,
    a radial mean's too: its profile is constant in theta.
    """

    def __init__(self, message, last_estimates, n_panels, n_theta, n_nodes):
        super().__init__(f"{message}: last estimates {last_estimates!r} at "
                         f"{n_panels} panels x {n_theta} angles, {n_nodes} nodes")
        self.last_estimates = tuple(last_estimates)
        self.n_panels = n_panels
        self.n_theta = n_theta
        self.n_nodes = n_nodes


class WindowViolation(BergseqError):
    """A lifted computation would leave the upper half plane."""


class SingularSystem(BergseqError):
    """A Gram system is numerically singular."""
