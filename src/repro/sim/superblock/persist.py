"""Empty placeholder left by the retired trace-build cache.

Nothing in the package reads this module.  The fixture in
``studybench/test_studybench.py`` still snapshots and restores
``_MEMORY`` around every test, so the empty dict stays until that
fixture drops it.
"""

_MEMORY: dict = {}
