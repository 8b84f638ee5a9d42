import tempfile
from pathlib import Path


def pytest_configure(config):
    # Hypothesis's pytest plugin caches the constants it reads from local
    # sources while collecting, even for tests without an example database;
    # keep that cache out of the checkout.
    from hypothesis.configuration import set_hypothesis_home_dir

    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "saferl-hypothesis")
