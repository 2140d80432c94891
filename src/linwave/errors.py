"""Exception shared by the library layers."""


class InternalError(RuntimeError):
    """A broken invariant of the computation itself, as opposed to bad input
    (ValueError) or a failure raised by numpy or the standard library.  The
    message names the layer that found it."""
