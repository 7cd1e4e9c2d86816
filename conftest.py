def pytest_configure(config):
    # numpy's warning classes are named here, not in pyproject.toml: pytest
    # imports every class named there before it loads any conftest, and so
    # numpy before tests/conftest.py has imported ergolab.cli, which sets
    # BLAS to one thread
    for category in ("RankWarning", "ComplexWarning"):
        config.addinivalue_line("filterwarnings", f"error::numpy.exceptions.{category}")
