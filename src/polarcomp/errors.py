"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A form, field, space or horizon cannot be built as requested.

    Raised for malformed descriptors and horizon specs, unsupported field
    orders, reducible moduli, degenerate forms and spaces whose rank is below
    the supported minimum.  A ``ValueError``, so callers catching that still do.
    """


class HorizonRefusal(Exception):
    """The requested horizon is rejected.

    Either it is not usable at all (equals the whole point set, lies under no
    candidate hyperplane) or it falls into a case that is deliberately out of
    scope, such as reconstruction over a hyperplane horizon.
    """


class LemmaFalsified(Exception):
    """A claim that the verified theory guarantees came out false.

    Raised by ``Complement.avoiding_hyperplane``, ``plane_path`` and
    ``plane_counts``, by ``canonical_map`` and by the battery's chain check;
    the battery, the ``complement`` task and the ``reconstruct`` task report
    it as a failure, never swallowing it.
    """
