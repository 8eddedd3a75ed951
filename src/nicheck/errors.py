class InputError(ValueError):
    """Raised for malformed systems, policies, traces, or command-line input.

    `diagnostics` carries every problem found at once: all the line-numbered
    errors of a system file, or all the declaration errors a `System` or
    `Policy` constructor found.  A single problem is its own one-item list.
    """

    def __init__(self, message, diagnostics=()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics) if diagnostics else (message,)


class BudgetError(RuntimeError):
    """Raised when a bounded enumeration would exceed its trace budget."""

    def __init__(self, message, trace_count):
        super().__init__(message)
        self.trace_count = trace_count
