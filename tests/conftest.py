"""Settings shared by every test module."""

from hypothesis import settings

# a failing property prints its @reproduce_failure line, so it can be replayed
# without the local example database; every other setting keeps its default
settings.register_profile("print-blob", print_blob=True)
settings.load_profile("print-blob")
