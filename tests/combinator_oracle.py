"""The six hand-expanded eta pattern combinators, kept as an independent oracle.

These are the published combinator listings written out case by case: 41
(group shape, sigma count) cases in all.  The library derives the same
linear combinations from two score-derivative rules
(:mod:`mlerisk.expansion`); the tests compare the two.  The argument ``t``
is an :class:`mlerisk.eta.EtaTable`.
"""

from __future__ import annotations

__all__ = ["ORACLE_CASES"]


def _pair_single(t: EtaTable, ns_pair: int, ns_single: int):
    v = t.value
    key = (ns_pair, ns_single)
    if key == (0, 0):
        return -v(0, 1, 1, 0)
    if key == (1, 0):
        return -(v(0, 1, 1, 1) + v(0, 0, 2, 0))
    if key == (0, 1):
        return -(v(0, 1, 0, 0) + v(0, 1, 1, 1))
    if key == (1, 1):
        return -(v(0, 1, 0, 1) + v(0, 1, 1, 2) + v(0, 0, 2, 1))
    if key == (2, 0):
        return -(v(0, 1, 1, 2) + 2 * v(0, 0, 2, 1))
    if key == (2, 1):
        return -(1 + 3 * v(0, 0, 1, 1) + v(0, 1, 0, 2) + 2 * v(0, 0, 2, 2) + v(0, 1, 1, 3))
    raise ValueError(f"bad sigma counts for (ab)c pattern: {key}")


def _triple(t: EtaTable, ns: int):
    v = t.value
    if ns == 0:
        return -v(0, 0, 3, 0)
    if ns == 1:
        return -(v(0, 0, 2, 0) + v(0, 0, 3, 1))
    if ns == 2:
        # the derivation's form; the program listing carries an extra
        # eta[0,0,1,0], identically zero by the table invariants
        return -(2 * v(0, 0, 2, 1) + v(0, 0, 3, 2))
    if ns == 3:
        return -(1 + 3 * v(0, 0, 1, 1) + 3 * v(0, 0, 2, 2) + v(0, 0, 3, 3))
    raise ValueError(f"bad sigma count for abc pattern: {ns}")


def _pair_pair(t: EtaTable, n1: int, n2: int):
    v = t.value
    key = (min(n1, n2), max(n1, n2))
    if key == (0, 0):
        return v(0, 2, 0, 0)
    if key == (0, 1):
        return v(0, 2, 0, 1) + v(0, 1, 1, 0)
    if key == (1, 1):
        return v(0, 2, 0, 2) + 2 * v(0, 1, 1, 1) + v(0, 0, 2, 0)
    if key == (0, 2):
        return v(0, 1, 0, 0) + v(0, 2, 0, 2) + 2 * v(0, 1, 1, 1)
    if key == (1, 2):
        return v(0, 1, 0, 1) + v(0, 2, 0, 3) + 3 * v(0, 1, 1, 2) + 2 * v(0, 0, 2, 1)
    if key == (2, 2):
        return (
            1
            + v(0, 2, 0, 4)
            + 4 * v(0, 0, 2, 2)
            + 2 * v(0, 1, 0, 2)
            + 4 * v(0, 0, 1, 1)
            + 4 * v(0, 1, 1, 3)
        )
    raise ValueError(f"bad sigma counts for (ab)(cd) pattern: {key}")


def _triple_single(t: EtaTable, ns_triple: int, ns_single: int):
    v = t.value
    key = (ns_triple, ns_single)
    if key == (0, 0):
        return v(1, 0, 1, 0)
    if key == (0, 1):
        return v(1, 0, 0, 0) + v(1, 0, 1, 1)
    if key == (1, 0):
        return 2 * v(0, 1, 1, 0) + v(1, 0, 1, 1)
    if key == (2, 0):
        return 4 * v(0, 1, 1, 1) + 2 * v(0, 0, 2, 0) + v(1, 0, 1, 2)
    if key == (1, 1):
        return 2 * v(0, 1, 0, 0) + v(1, 0, 0, 1) + 2 * v(0, 1, 1, 1) + v(1, 0, 1, 2)
    if key == (2, 1):
        return (
            4 * v(0, 1, 0, 1)
            + v(1, 0, 0, 2)
            + 4 * v(0, 1, 1, 2)
            + 2 * v(0, 0, 2, 1)
            + v(1, 0, 1, 3)
        )
    if key == (3, 0):
        return 6 * v(0, 1, 1, 2) + 6 * v(0, 0, 2, 1) + v(1, 0, 1, 3)
    if key == (3, 1):
        return (
            2
            + 6 * v(0, 1, 0, 2)
            + 6 * v(0, 0, 1, 1)
            + v(1, 0, 0, 3)
            + 2 * v(0, 0, 1, 1)
            + 6 * v(0, 1, 1, 3)
            + 6 * v(0, 0, 2, 2)
            + v(1, 0, 1, 4)
        )
    raise ValueError(f"bad sigma counts for (abc)d pattern: {key}")


def _pair_two(t: EtaTable, ns_pair: int, ns_rest: int):
    v = t.value
    key = (ns_pair, ns_rest)
    if key == (0, 0):
        return v(0, 1, 2, 0)
    if key == (0, 1):
        return v(0, 1, 1, 0) + v(0, 1, 2, 1)
    if key == (1, 0):
        return v(0, 1, 2, 1) + v(0, 0, 3, 0)
    if key == (0, 2):
        return v(0, 1, 0, 0) + 2 * v(0, 1, 1, 1) + v(0, 1, 2, 2)
    if key == (1, 1):
        return v(0, 1, 1, 1) + v(0, 0, 2, 0) + v(0, 1, 2, 2) + v(0, 0, 3, 1)
    if key == (2, 0):
        return v(0, 0, 2, 0) + 2 * v(0, 0, 3, 1) + v(0, 1, 2, 2)
    if key == (1, 2):
        return (
            v(0, 1, 0, 1)
            + 2 * v(0, 1, 1, 2)
            + 2 * v(0, 0, 2, 1)
            + v(0, 1, 2, 3)
            + v(0, 0, 3, 2)
        )
    if key == (2, 1):
        # total weight 3 on eta[0,0,2,1], exactly as the source writes it
        return (
            2 * v(0, 0, 2, 1)
            + v(0, 1, 1, 2)
            + v(0, 0, 2, 1)
            + 2 * v(0, 0, 3, 2)
            + v(0, 1, 2, 3)
        )
    if key == (2, 2):
        return (
            1
            + 4 * v(0, 0, 1, 1)
            + v(0, 1, 0, 2)
            + 5 * v(0, 0, 2, 2)
            + 2 * v(0, 1, 1, 3)
            + 2 * v(0, 0, 3, 3)
            + v(0, 1, 2, 4)
        )
    raise ValueError(f"bad sigma counts for (ab)cd pattern: {key}")


def _four(t: EtaTable, ns: int):
    v = t.value
    if ns == 0:
        return v(0, 0, 4, 0)
    if ns == 1:
        return v(0, 0, 3, 0) + v(0, 0, 4, 1)
    if ns == 2:
        return v(0, 0, 2, 0) + 2 * v(0, 0, 3, 1) + v(0, 0, 4, 2)
    if ns == 3:
        return 3 * v(0, 0, 2, 1) + 3 * v(0, 0, 3, 2) + v(0, 0, 4, 3)
    if ns == 4:
        return (
            1 + 4 * v(0, 0, 1, 1) + 6 * v(0, 0, 2, 2) + 4 * v(0, 0, 3, 3) + v(0, 0, 4, 4)
        )
    raise ValueError(f"bad sigma count for abcd pattern: {ns}")


def _singles(n, ns):
    return ((1, 1),) * ns + ((1, 0),) * (n - ns)


# {groups: oracle call} for all 41 cases.  A group (n, ns) is the n-th score
# derivative with ns sigma slots; the groups follow the oracle's argument order.
ORACLE_CASES = {
    **{((2, a), (1, s)): lambda t, a=a, s=s: _pair_single(t, a, s) for a in range(3) for s in range(2)},
    **{_singles(3, n): lambda t, n=n: _triple(t, n) for n in range(4)},
    **{((2, a), (2, b)): lambda t, a=a, b=b: _pair_pair(t, a, b) for a in range(3) for b in range(3)},
    **{((3, a), (1, s)): lambda t, a=a, s=s: _triple_single(t, a, s) for a in range(4) for s in range(2)},
    **{((2, a), *_singles(2, b)): lambda t, a=a, b=b: _pair_two(t, a, b) for a in range(3) for b in range(3)},
    **{_singles(4, n): lambda t, n=n: _four(t, n) for n in range(5)},
}
