"""tamecert: finite-horizon certificates for enveloping-semigroup structure.

Constructs split-circle (Sturmian), semicocycle, cos(1/x), cut-and-project,
partial-linear and free-group boundary systems with exact arithmetic, approximates
enveloping-semigroup elements along certified approach sequences, and emits
machine-checkable certificates: determining sets, Sorgenfrey isolation,
independence-set growth and oscillation rank.

Points, maps and results are plain record classes.  Apart from the working
records SampleSet, ApproxElement, RankInstance, RankTrace and SystemRank, a
record's fields are set once, in ``__init__``, and never assigned afterwards.
Records that are compared or used as keys define equality, and a hash, over
the tuple of their fields; the others compare by identity.
"""

__version__ = "0.1.0"

# Re-exported from ``exactarith`` on first access (PEP 562), so that a bare
# ``import tamecert`` loads no NumPy: ``cli`` sets its BLAS thread default
# before NumPy first loads.
_EXACTARITH = frozenset({"GOLDEN", "SQRT2_MINUS_1", "ApproachSequence", "CirclePoint",
                         "RotationNumber", "one_sided_approach", "parse_rotation_number"})


def __getattr__(name):
    if name not in _EXACTARITH:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import exactarith

    value = globals()[name] = getattr(exactarith, name)
    return value
