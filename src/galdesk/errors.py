"""The two kinds of error galdesk raises.

`InputError`: a document, payload or argument that galdesk refuses (exit 2);
every layer's own error class derives from it.  `VerificationFailure`: a
post-condition that no valid input can violate, so a fault in galdesk (exit 1).
"""


class InputError(ValueError):
    pass


class VerificationFailure(ValueError):
    pass
