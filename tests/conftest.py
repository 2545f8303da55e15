"""Shared test setup.

hypothesis's pytest plugin imports ``hypothesis.extra._patching`` when it
reports a failing property test.  That module imports libcst, which raises
a DeprecationWarning (``mypy_extensions.TypedDict``) at import time; under
``filterwarnings = ["error"]`` the warning becomes an exception inside the
report hook, and the run ends in INTERNALERROR instead of one failure.
Importing the module once here, with that warning ignored, leaves nothing
for the hook to import.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:   # hypothesis without its patching extra, or without libcst
        pass
