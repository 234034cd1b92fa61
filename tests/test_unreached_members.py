"""``tests/unreached_members.py``'s ALLOWED names only members that exist."""

from unreached_members import ALLOWED, package_functions


def test_every_allowed_name_is_a_package_function():
    # the script's "stale in ALLOWED" half, which needs no corpus run
    assert sorted(ALLOWED - set(package_functions().values())) == []
