"""The README's Library examples and `barfock.laurent`'s docstring
examples, run as doctests."""

import doctest
import os

import barfock
import barfock.laurent

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
	os.path.abspath(barfock.__file__))))


def test_readme_library_block():
	result = doctest.testfile(os.path.join(ROOT, "README.md"), module_relative=False)
	assert result.failed == 0 and result.attempted > 0, result


def test_laurent_doctests():
	result = doctest.testmod(barfock.laurent)
	assert result.failed == 0 and result.attempted > 0, result
