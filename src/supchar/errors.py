"""Exception hierarchy shared by all supchar modules."""


class SupcharError(Exception):
    """Base class for all errors raised by this package."""


# -- scalars ---------------------------------------------------------------

class NotPrime(SupcharError):
    pass


class DegreeTooLarge(SupcharError):
    pass


class DivisionByZero(SupcharError):
    pass


class LogOfZero(SupcharError):
    pass


class OrderMismatch(SupcharError):
    pass


class BadOrder(SupcharError):
    pass


# -- algebra validation ----------------------------------------------------

class AlgebraValidationError(SupcharError):
    """Base for validation failures; message carries the offending JSON path."""


class NotAssociative(AlgebraValidationError):
    pass


class BadUnit(AlgebraValidationError):
    pass


class BadIdempotents(AlgebraValidationError):
    pass


class RadicalNotNilpotent(AlgebraValidationError):
    pass


class NotDirectSum(AlgebraValidationError):
    pass


class SNotCommutative(AlgebraValidationError):
    pass


# -- algebra operations ----------------------------------------------------

class NotInvertible(SupcharError):
    pass


class NotInRadical(SupcharError):
    pass


class NotGenerating(SupcharError):
    pass


class PointOutsideSet(SupcharError):
    """A map handed to the orbit kernel sends a point out of its point set."""


class SpaceTooLarge(SupcharError):
    pass


class GroupTooLarge(SupcharError):
    pass


class NotInH(SupcharError):
    pass


class ReductionFailed(SupcharError):
    pass


class NotRegular(SupcharError):
    pass


class NotInStabilizer(SupcharError):
    pass


class NotConstantOnSuperclass(SupcharError):
    pass


class PartitionMismatch(SupcharError):
    pass


class BadSize(SupcharError):
    pass


class OutputNotWritable(SupcharError):
    """An output path given by --out or --diff-out cannot be written."""
