"""Exception types shared across the package."""


class MatchseqError(Exception):
    """Base class for all matchseq errors."""


class InvalidFamilyParams(MatchseqError):
    """Family parameters outside the documented bounds."""


class InvalidVertex(MatchseqError):
    """Vertex index outside the owning graph's range."""


class InvalidEdgeId(MatchseqError):
    """Edge id that does not belong to the graph."""


class InvalidOrdering(MatchseqError):
    """Sequence that is not a permutation of the graph's edge ids."""


class InvalidTarget(MatchseqError):
    """Solver target d that is not an int in [1, m], no edges, or a bad mode."""


class NoKnownFormula(MatchseqError):
    """No closed-form value is on record for the requested family/mode."""


class FormatError(MatchseqError):
    """Malformed graph or ordering file.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
