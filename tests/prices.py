"""The one way a test forces the table-or-loop forks: it sets the prices the rent rule reads.

poly2._rented buys a fork's tables once its loop has served the price read on each call:
field._RENT for the Frobenius vector read, construct._RENT (construct's own binding of it)
for a kept base's lift table, poly2._UNIT_RENT for the unit test's tables, counted in
poly2._units.  Price 0 buys every table on its first use and NEVER keeps every loop; a spec
keeps its counts and tables, so a test makes its specs inside the price.
"""

from contextlib import contextmanager, nullcontext

from normbase import construct, field, poly2
from normbase.field import FieldSpec

NEVER = 1 << 62  # a count no run reaches


@contextmanager
def at_price(price: int):
    """Run the block with every rent price set to price and an empty poly2._units."""
    saved = field._RENT, construct._RENT, poly2._UNIT_RENT, poly2._units
    field._RENT = construct._RENT = poly2._UNIT_RENT = price
    poly2._units = {}
    try:
        yield
    finally:
        field._RENT, construct._RENT, poly2._UNIT_RENT, poly2._units = saved


def at_both_prices(spec: FieldSpec, run) -> list:
    """[run(s) at price 0, run(s) at NEVER], s each time a fresh spec equal to spec."""
    runs = []
    for price in (0, NEVER):
        with at_price(price):
            runs.append(run(FieldSpec(spec.n, spec.modulus)))
    return runs


def each_price() -> tuple:
    """Contexts to run a block in once each: the default prices, price 0 and NEVER."""
    return nullcontext(), at_price(0), at_price(NEVER)
