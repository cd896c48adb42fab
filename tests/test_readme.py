import doctest
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_quick_start_runs():
    """The README's `>>>` examples give the outputs they show, so a renamed
    or removed public name cannot leave the quick start stale."""
    failed, attempted = doctest.testfile(
        str(README), module_relative=False, optionflags=doctest.ELLIPSIS
    )
    assert attempted > 0
    assert failed == 0
