import sys

import hypothesis

hypothesis.settings.register_profile(
    "slq2",
    max_examples=40,
    deadline=None,
    derandomize=True,
)
# the scalar differential tests in depth (a CI step selects it with
# ``--hypothesis-profile slq2-deep``); tests that fix max_examples keep it
hypothesis.settings.register_profile(
    "slq2-deep",
    max_examples=1000,
    deadline=None,
    derandomize=False,
)
hypothesis.settings.load_profile("slq2")


def pytest_terminal_summary(terminalreporter):
    """Report the test process's peak resident set size, which includes
    every memo the library keeps (builders, coproducts, pairings, tensor
    products).  Skipped where the ``resource`` module is missing."""
    try:
        import resource
    except ImportError:
        return
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    mb = peak / 1024 / (1024 if sys.platform == "darwin" else 1)
    terminalreporter.write_line(f"peak RSS of the test process: {mb:.1f} MB")
