"""Shared exception types."""


class TtgError(Exception):
    """Base class for all errors raised by this package."""


class InputError(TtgError):
    """Malformed user input: parse failures, ring mismatches, schema violations."""


class HomogeneityError(InputError):
    """A polynomial, matrix entry or relation violates the graded degree rule."""


class CertificateError(TtgError):
    """A prime's sequence is not in it, not regular, or does not generate it."""


class InternalError(TtgError):
    """An invariant the algorithms guarantee failed to hold: a bug, not bad input."""


def frozen_attribute(self, name, *value):
    """`__setattr__` and `__delattr__` of the immutable value classes."""
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")
