"""Exception types shared across the toolkit."""


class LorotError(Exception):
    """Base class for all toolkit errors."""


class NotCausalPair(LorotError):
    """A geodesic or contraction was requested for a spacelike pair."""


class BadGrid(LorotError):
    """A grid discretization was requested with fewer than two atoms."""


class Infeasible(LorotError):
    """No coupling supported on causal pairs exists for the given marginals."""


class TooLarge(LorotError):
    """Instance exceeds the brute-force oracle's size cap."""


class UnreachableAtom(LorotError):
    """A source atom cannot be reached by any chain from the root pair."""

    def __init__(self, atom_index, message=None):
        self.atom_index = atom_index
        super().__init__(message or f"no chain from the root reaches mu-atom {atom_index}")


class MonotonicityViolation(LorotError):
    """Coupling support is not cyclically monotone (or branches at an atom)."""


class ValidationFailed(LorotError):
    """A profile function violated one of its defining conditions."""

    def __init__(self, condition, message=None):
        self.condition = condition
        super().__init__(message or f"profile condition ({condition}) violated")


class SchemaError(LorotError):
    """Input JSON does not conform to the problem schema."""
