"""Exception types shared across the workbench."""


class KripkebenchError(Exception):
    """Base class for all workbench errors."""


class FormatError(KripkebenchError, ValueError):
    """Malformed frame/valuation data or a violated structural invariant."""


class FormulaSyntaxError(KripkebenchError, ValueError):
    """Formula text rejected by the parser.

    Carries the byte offset of the offending position and the set of
    token kinds that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str], found: str):
        super().__init__(f"{message} at byte {offset}: expected one of "
                         f"{{{', '.join(sorted(expected))}}}, found {found!r}")
        self.offset = offset
        self.expected = expected
        self.found = found


class UnknownName(KripkebenchError, ValueError):
    """Formula name not present in the registry."""


class ArityMismatch(KripkebenchError, ValueError):
    """Registry formula instantiated with the wrong parameters."""


class UnknownProperty(KripkebenchError, ValueError):
    """Frame property identifier not recognised."""


class UnknownCheck(KripkebenchError, ValueError):
    """Check id not present in the check registry."""


class EmptyRestriction(KripkebenchError, ValueError):
    """Restriction of a frame to the empty set of worlds."""


class NotTense(KripkebenchError, ValueError):
    """Tense-sum operand whose relations are not mutual converses."""


# default budget of validity searches and free-algebra counts, in the unit
# each one's BudgetExceeded names
DEFAULT_BUDGET = 1 << 20


class BudgetExceeded(KripkebenchError):
    """An enumeration would exceed the configured budget.

    ``needed`` is the quantity compared against the budget, counted in
    ``unit``: valuation x world cells summed over the parts a validity
    search would search, coordinates for a free-algebra count, world pairs
    for the collapse check C6, candidate maps for a p-morphism search.
    """

    def __init__(self, needed: int, budget: int, unit: str):
        super().__init__(f"enumeration needs {needed} {unit}, budget is {budget}")
        self.needed = needed
        self.budget = budget


def size_text(size: int) -> str:
    """``size`` in decimal below 2^64; above, as 2^e when it is a power of
    two (as exact counts are) and in hex otherwise, since Python refuses to
    write ints of more than 4300 digits in decimal."""
    if size < 1 << 64:
        return str(size)
    if size & size - 1 == 0:
        return f"2^{size.bit_length() - 1}"
    return hex(size)


def value_text(value) -> str:
    """``repr(value)``, or a stand-in where Python writes none: for an int
    of more than 4300 digits (or a value holding one) or deep nesting."""
    try:
        return repr(value)
    except (ValueError, RecursionError):
        return f"a value of type {type(value).__name__} too large to print"


def check_int(value, name: str, least: int | None = None) -> None:
    """Raise a FormatError naming ``name`` unless ``value`` is an int, not a
    bool, and at least ``least`` (None, 0 or 1) when that is given."""
    if type(value) is not int or least is not None and value < least:
        kind = {None: "an int", 0: "a nonnegative int", 1: "a positive int"}[least]
        raise FormatError(f"{name} must be {kind}, got {value_text(value)}")


class CapExceeded(KripkebenchError):
    """A closure or count grew past the configured cap.

    ``last_size`` is the size reached (or the exact count, when it is
    known without enumeration), as an exact int; the message writes it
    with ``size_text``.
    """

    def __init__(self, last_size: int, cap: int):
        super().__init__(f"size {size_text(last_size)} exceeds cap {size_text(cap)}")
        self.last_size = last_size
        self.cap = cap


class NotPretransitive(KripkebenchError, ValueError):
    """Frame whose two-step reachability does not exhaust reachability."""


class NotDefinable(KripkebenchError):
    """A world that no formula can separate from the rest of its block."""

    def __init__(self, world: int, message: str = ""):
        super().__init__(message or f"world {world} is not definable")
        self.world = world
