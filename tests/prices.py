"""The one way a test forces the table-or-loop forks: it sets the prices the rent rule reads.

poly2._rented buys a fork's tables once its loop has served the fork's price, read from the
one table poly2._PRICES while the count runs: "frobenius" for the Frobenius vector read,
"lift" for a kept base's lift table, "units" for the unit test's tables, counted in
poly2._units.  Price 0 buys every table on its first use and NEVER keeps every loop; a spec
keeps its counts and tables, so a test makes its specs inside the price.
"""

from contextlib import contextmanager, nullcontext

from normbase import poly2
from normbase.field import FieldSpec

NEVER = 1 << 62  # a count no run reaches


@contextmanager
def at_prices(**prices: int):
    """Run the block with the named forks at the given prices, the others at their own, and
    an empty poly2._units.  A name that is no fork raises KeyError, as _rented does."""
    if unknown := prices.keys() - poly2._PRICES.keys():
        raise KeyError(f"no rent fork named {sorted(unknown)}")
    saved = poly2._PRICES, poly2._units
    poly2._PRICES = {**saved[0], **prices}
    poly2._units = {}
    try:
        yield
    finally:
        poly2._PRICES, poly2._units = saved


def at_price(price: int):
    """Run the block with every fork at price and an empty poly2._units."""
    return at_prices(**dict.fromkeys(poly2._PRICES, price))


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
