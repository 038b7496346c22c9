"""The package's public names."""
import soqn


def test_all_names_resolve():
    missing = [name for name in soqn.__all__ if not hasattr(soqn, name)]
    assert missing == []

