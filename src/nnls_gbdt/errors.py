"""Exception types shared across the package.

Each class carries the exit code ``nnls-gbdt run`` ends with when it
escapes a scenario: 2 when the construction data is unusable, 3 when the
scenario is malformed or asks for a grid, range or parameter outside what
the package can evaluate.
"""

#: Exit code for construction data that fails validation or defines no solution.
BAD_DATA = 2

#: Exit code for a malformed scenario or one outside the operating range.
BAD_SCENARIO = 3


class NnlsGbdtError(Exception):
    """Base class for package-specific errors."""

    exit_code = BAD_DATA


class NonSquare(NnlsGbdtError):
    """A square matrix was required."""

    exit_code = BAD_DATA


class Overflow(NnlsGbdtError):
    """Operand norm exceeds the documented operating range."""

    exit_code = BAD_SCENARIO


class SpectralClash(NnlsGbdtError):
    """Spectra of A and -B are not numerically disjoint; the linear map is near-singular."""

    exit_code = BAD_DATA


class NoConvergence(NnlsGbdtError):
    """Iterative eigenvalue computation failed to converge."""

    exit_code = BAD_DATA


class InvalidRange(NnlsGbdtError):
    """Integration bounds or step count are unusable."""

    exit_code = BAD_SCENARIO


class DimensionMismatch(NnlsGbdtError):
    """Matrix shapes are inconsistent with each other."""

    exit_code = BAD_DATA


class DegenerateS(NnlsGbdtError):
    """The completed S(0,0) is singular; the data does not define a solution."""

    exit_code = BAD_DATA


class SpectralPole(NnlsGbdtError):
    """The spectral parameter z collides with an eigenvalue of A."""

    exit_code = BAD_DATA


class SingularPoint(NnlsGbdtError):
    """Evaluation requested at a point where det S vanishes."""

    exit_code = BAD_DATA

    def __init__(self, x, t, det_abs, message=None):
        self.x = x
        self.t = t
        self.det_abs = det_abs
        if message is None:
            message = f"S(x, t) is singular at x={x!r}, t={t!r} (|det S| = {det_abs:.3e})"
        super().__init__(message)


class AsymmetricGrid(NnlsGbdtError):
    """The x-grid is not symmetric about 0, so mirror evaluation is impossible."""

    exit_code = BAD_SCENARIO


class GridTooSmall(NnlsGbdtError):
    """Too few grid points for the finite-difference stencil."""

    exit_code = BAD_SCENARIO


class BadTau(NnlsGbdtError):
    """The modular parameter must have positive imaginary part."""

    exit_code = BAD_SCENARIO


class RangeExceeded(NnlsGbdtError):
    """A size or argument outside the operating range: a theta argument where
    double precision cannot represent the sum, or a scenario whose grid
    levels exceed the runner's node budget."""

    exit_code = BAD_SCENARIO


class ThetaZero(NnlsGbdtError):
    """A theta denominator vanishes at the requested point."""

    exit_code = BAD_DATA


class DegenerateCurve(NnlsGbdtError):
    """Branch points coincide; the curve is not smooth of genus 1."""

    exit_code = BAD_DATA


class QuadratureFailure(NnlsGbdtError):
    """Adaptive quadrature did not reach the requested accuracy."""

    exit_code = BAD_DATA


class InvalidParams(NnlsGbdtError):
    """Parameter values violate a documented precondition."""

    exit_code = BAD_DATA


class SchemaError(NnlsGbdtError):
    """Scenario file does not conform to the documented schema."""

    exit_code = BAD_SCENARIO
