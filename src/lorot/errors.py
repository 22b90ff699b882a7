"""Exception types shared across the toolkit."""


class LorotError(Exception):
    """Base class for all toolkit errors."""


class NotCausalPair(LorotError):
    """A geodesic or contraction was requested for a spacelike pair."""


class BadGrid(LorotError):
    """A grid discretization was requested with fewer than two atoms."""


class Infeasible(LorotError):
    """No coupling supported on causal pairs exists for the given marginals.
    The message names an atom with no causal partner, or a Hall set: mu-atoms
    that outweigh the nu-atoms they reach, with both exact masses."""


class TooLarge(LorotError):
    """A side of the instance has more atoms than the oracle's cap,
    ``solver.ORACLE_CAP``."""


class UnreachableAtom(LorotError):
    """A source atom cannot be reached by any chain from the root pair."""

    def __init__(self, atom_index):
        self.atom_index = atom_index
        super().__init__(f"no chain from the root reaches mu-atom {atom_index}")


class MonotonicityViolation(LorotError):
    """Coupling support is not cyclically monotone (or branches at an atom)."""


class ValidationFailed(LorotError):
    """A profile function violated one of its defining conditions."""

    def __init__(self, condition):
        self.condition = condition
        super().__init__(f"profile condition ({condition}) violated")


class ExperimentCheckFailed(LorotError):
    """An experiment's computed result failed one of its built-in checks."""


class SchemaError(LorotError):
    """Input JSON does not conform to the problem schema."""
