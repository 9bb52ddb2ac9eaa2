"""Exception types shared across the package."""


class QF2Error(Exception):
    """Base class for all errors raised by this package."""


class DegreeOverflow(QF2Error):
    """A polynomial exceeded the configured degree cap."""


class TowerDepthExceeded(QF2Error):
    """A field descriptor exceeded the configured variable cap."""


class ZeroElement(QF2Error):
    """An operation that needs a nonzero element received zero."""


class FieldMismatch(QF2Error):
    """Operands live over different (non-embeddable) fields."""


class ZeroScalar(QF2Error):
    """Scaling by zero is not defined."""


class Degenerate(QF2Error):
    """Radical of the polar form too large; carries the radical dimension."""

    def __init__(self, radical_dim):
        super().__init__(f"radical dimension {radical_dim}")
        self.radical_dim = radical_dim

    def __reduce__(self):
        # rebuilt from its fields when a batch worker sends it back
        return type(self), (self.radical_dim,)


class OddDimension(QF2Error):
    """Even-dimensional (nonsingular) input required."""


class NotAlbert(QF2Error):
    """Input is not a 6-dimensional form with trivial Arf invariant."""


class Undecided(QF2Error):
    """A decision procedure hit the Unknown channel; carries the reason."""

    def __init__(self, reason="undecided"):
        super().__init__(reason)
        self.reason = reason


class NotNormalizable(QF2Error):
    """A block cannot be put in residue shape: its product class is wild
    (or zero).  A tame class is never refused: a rational shear retames it."""


class RangeViolation(QF2Error):
    """Codimension left the window where an isotropic reduction applies."""


class SoundnessError(QF2Error):
    """A result failed its own exact check; raised even under python -O."""


class BudgetExceeded(QF2Error):
    """The brute-force searcher ran out of its node budget."""


class ParseError(QF2Error):
    """Positioned parse failure."""

    def __init__(self, line, col, expected, found=""):
        super().__init__(f"line {line}, col {col}: expected {expected}" +
                         (f", found {found!r}" if found else ""))
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found

    def __reduce__(self):
        # rebuilt from its fields when a batch worker sends it back
        return type(self), (self.line, self.col, self.expected, self.found)
