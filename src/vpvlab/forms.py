"""The printed closed forms of Li_k(1/2), k = 1..4, and their evaluator.

The special-value audit (explorer) checks these forms against the
series, and the identity registry (products) takes its `ln2` and
`dilog-half` constants from the two rows the audit confirms.
"""
from __future__ import annotations

from functools import cache
from typing import Callable, NamedTuple, Optional, Sequence


class _Term(NamedTuple):
    """One signed term of a printed form, with its ln 2 power or None.
    text has a `{}` slot for that power; value(c, lp) is the unsigned value
    from the audit constants c and lp = ln(2)^power. A term that is not
    free is the same in every variant."""

    sign: int
    power: Optional[int]
    text: str
    value: Callable
    free: bool = True


# The printed closed forms of Li_k(1/2), k = 1..4, in audit order.
_PRINTED_FORMS = (
    ("LI1_HALF", (_Term(1, 1, "{}", lambda c, lp: lp, free=False),)),
    ("LI2_HALF", (
        _Term(1, None, "pi^2/12", lambda c, lp: c["pi"] ** 2 / 12, free=False),
        _Term(-1, 2, "{}/2", lambda c, lp: lp / 2, free=False),
    )),
    ("LI3_HALF", (
        _Term(1, 3, "{}/6", lambda c, lp: lp / 6),
        _Term(-1, 2, "(pi^2/12) {}", lambda c, lp: c["pi"] ** 2 / 12 * lp),
        _Term(-1, None, "(7/8) zeta(3)", lambda c, lp: 7 * c["zeta3"] / 8),
    )),
    ("LI4_HALF", (
        _Term(1, None, "pi^4/360", lambda c, lp: c["pi"] ** 4 / 360, free=False),
        _Term(-1, 4, "{}/24", lambda c, lp: lp / 24),
        _Term(-1, 4, "(pi^2/24) {}", lambda c, lp: c["pi"] ** 2 / 24 * lp),
        _Term(-1, None, "zeta_alt(3,1)/2", lambda c, lp: c["ez31"] / 2),
    )),
)


def _evaluate(terms: Sequence[_Term], value_of: Callable):
    # Left to right on purpose: sum() compensates float sums from 3.12 on.
    total = 0
    for i, term in enumerate(terms):
        value = value_of(i, term.power)
        total = total + value if term.sign > 0 else total - value
    return total


def _term_values(terms: Sequence[_Term], constants: dict, ln2) -> Callable:
    """value_of for _evaluate over terms and their variants: each term's
    value at each ln 2 power, evaluated once."""
    return cache(lambda i, power: terms[i].value(constants, None if power is None else ln2 ** power))
