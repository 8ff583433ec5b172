import pathlib
import sys

try:
    import leonard_lab  # noqa: F401  (an installed package wins over src/)
except ImportError:
    sys.path.insert(0, str(pathlib.Path(__file__).parent / "src"))
