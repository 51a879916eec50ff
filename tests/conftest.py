"""Setup shared by every test module.

When a hypothesis property fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to write its failure patch, and that module
imports ``libcst``, whose import warns from ``mypy_extensions``.  Under
``-W error`` the warning would end the run in a pytest INTERNALERROR that
hides the falsifying example.  So the module is imported once here, with
warnings ignored for that import only; any later warning still raises.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
