"""Catalog of the closed rational forms used by the verification suite.

``closed_form`` looks a name up in one table of builders, whose keys are
``CATALOG_NAMES``; each builds an exact ``RationalFunc``.  Parameterized
families take ``k``/``t``/``alpha``/``m``/``a``/``i``/``b`` keywords.  ``t``
may be an int or the string "sym" for a symbolic weight (TPoly coefficients).
A name that is one member of a family (J3, J4..J7, thm1t, H31k2) is built by
that family's builder; thm1 and v2m1, the paper's headline forms, stay literal.
"""

from __future__ import annotations

from functools import reduce

from .guess import RationalFunc
from .polynomials import TPoly, convolve


def _tp(*coeffs) -> TPoly:
    return TPoly(coeffs)


def _dict_to_list(d: dict):
    n = max(d) + 1 if d else 0
    out = [0] * n
    for e, c in d.items():
        out[e] = c
    return out


def _maybe_specialize(num: dict, den: dict, t) -> RationalFunc:
    rf = RationalFunc(_dict_to_list(num), _dict_to_list(den))
    return rf if t == "sym" else rf.specialize_t(int(t))


def _expand(*factors) -> list[int]:
    return reduce(convolve, factors, [1])


def _sq_sum_kbonacci(k: int, t) -> RationalFunc:
    tk1 = _tp(*([0] * (k - 1) + [1]))                # t^{k-1}
    one_t2 = _tp(1, 0, 1)
    one_t4 = _tp(1, 0, 0, 0, 1)
    num = {0: 1, k: -(tk1 * one_t2)}
    den = {0: 1, 1: -one_t2, k: -(tk1 * one_t2), k + 1: tk1 * one_t4}
    return _maybe_specialize(num, den, t)


def _cube_sum_kbonacci(k: int, t) -> RationalFunc:
    t3 = _tp(0, 0, 0, 1)
    t9 = t3 * t3 * t3
    one_t3 = 1 + t3
    t3m1 = t3 - 1
    num = {0: 1, k: -(t3 * one_t3 * one_t3), 2 * k: t9 * t3m1 * t3m1}
    den = {
        0: 1,
        1: -one_t3,
        k: -(t3 * one_t3 * one_t3),
        k + 1: t3 * (1 + t9),
        2 * k: t9 * t3m1 * t3m1,
        2 * k + 1: -(t9 * t3m1 * t3m1 * one_t3),
    }
    return _maybe_specialize(num, den, t)


def _cube_sum_kbonacci_fitted(k: int, t) -> RationalFunc:
    """Data-fitted k-uniform refinement of the cube-sum family.

    Writing s = t^{k-1}, the fitted coefficients are
    a1 = -(1+t^3), a2 = -s(1+s)(1+t^3), a3 = s(1+s)(1-t^3+t^6),
    a4 = s^3(t^3-1)^2, a5 = -a4(1+t^3); the printed family above is the
    k = 4 instance (s = t^3), and every instance agrees at t = 1.
    """
    s = _tp(*([0] * (k - 1) + [1]))
    t3 = _tp(0, 0, 0, 1)
    one_t3 = 1 + t3
    a2 = -(s * (1 + s) * one_t3)
    a3 = s * (1 + s) * _tp(1, 0, 0, -1, 0, 0, 1)
    a4 = s * s * s * (t3 - 1) * (t3 - 1)
    a5 = -(a4 * one_t3)
    num = {0: 1, k: a2, 2 * k: a4}
    den = {0: 1, 1: -one_t3, k: a2, k + 1: a3, 2 * k: a4, 2 * k + 1: a5}
    return _maybe_specialize(num, den, t)


_MULTI_INDEX_DATA = {
    (1, 1): ([0, 1, 1], [1, -2, -2, 2]),
    (1, 0, 1): ([0, 0, 2, 1, -1], _expand([1, -1], [1, -2, -2, 2])),
    (2, 1): ([0, 1, 1], [1, -2, -4, 2]),
    (1, 3): ([0, 1, 1, 1, 1], [1, -2, -7, 0, -2, 2]),
    (2, 2): ([0, 1, 1, -1, -1], [1, -2, -7, 0, -2, 2]),
    (2, 3): ([0, 1, 1, -1, -1], [1, -2, -11, -8, -20, 10]),
    (1, 1, 1): ([0, 0, 2, 2, -2], _expand([1, -1], [1, -2, -4, 2])),
    (1, 0, 2): ([0, 0, 2, 1, -2, 1], _expand([1, -1], [1, -1], [1, -2, -4, 2])),
    (2, 1, 1): ([0, 0, 2, 2, -4, 4], _expand([1, -1], [1, -1], [1, -2, -7, 0, -2, 2])),
    (1, 2, 1): ([0, 0, 2, 4, -2], _expand([1, -1], [1, -2, -7, 0, -2, 2])),
}


_JK_UNIT_DATA = {
    4: ({0: 1, 1: -7, 2: -2}, {0: 1, 1: -7, 2: -2}, {1: -2}, {(2, 1): 2}),
    5: ({0: 1, 1: -11, 2: -20}, {0: 1, 1: -11, 2: -20}, {1: -2}, {(1, 1): -8, (2, 1): 10}),
    6: ({0: 1, 1: -17, 2: -88, 3: -4}, {0: 1, 1: -17, 2: -88, 3: -4}, {1: -2}, {(1, 1): -28, (2, 1): 26, (3, 1): 4}),
    7: ({0: 1, 1: -26, 2: -311, 3: -84}, {0: 1, 1: -26, 2: -311, 3: -84}, {1: -2}, {(1, 1): -74, (2, 1): 34, (3, 1): 42}),
}


def _power_sum_kbonacci_unit(r: int, k: int) -> RationalFunc:
    num_k, den_k, den_lit, den_off = _JK_UNIT_DATA[r]
    num = {j * k: c for j, c in num_k.items()}
    den = {j * k: c for j, c in den_k.items()}
    den.update(den_lit)
    for (j, off), c in den_off.items():
        den[j * k + off] = c
    return RationalFunc(_dict_to_list(num), _dict_to_list(den))


_CONGRUENCE_DATA = {
    (2, 0): ([0, 0, 0, 1, 0, -2], _expand([1, -1], [1, -1, -1], [1, -2, 2, -2])),
    (2, 1): ([1, 0, 2], [1, -2, 2, -2]),
    (3, 0): ([0, 0, 0, 0, 0, 2, 0, -4], _expand([1, -1], [1, -1, -1], [1, -2, 2, -3, 4, -4])),
    (3, 1): ([1, -2, 4, -6, 8, -10, 8, -6], _expand([1, -1], [1, -1, 1], [1, -2, 2, -3, 4, -4])),
    (3, 2): ([0, 0, 0, 1, 0, 0, 0, 2], _expand([1, -1], [1, -1, 1], [1, -2, 2, -3, 4, -4])),
    (4, 0): (
        _expand([0, 0, 0, 0, 0, 0, 1], [1, 0, -2], [1, 0, -3, 4, -4]),
        _expand([1, -1], [1, -1, -1], [1, 0, -1, 0, 2], [1, -2, 2, -2], [1, -2, 2, -2]),
    ),
    (4, 1): ([1, -2, 5, -8, 10, -12, 8, -6], _expand([1, -1], [1, -2, 2, -2], [1, -1, 2, -2, 2])),
    (4, 2): (
        _expand([0, 0, 0, 1], [1, 0, 1], [1, 0, -2]),
        _expand([1, 0, -1, 0, 2], [1, -2, 2, -2], [1, -2, 2, -2]),
    ),
    (4, 3): (
        _expand([0, 0, 0, 0, 0, 2], [1, 0, 1]),
        _expand([1, -1], [1, -2, 2, -2], [1, -1, 2, -2, 2]),
    ),
}


def _congruence_kbonacci_21(k: int) -> RationalFunc:
    num = {0: 1, k: 2}
    den = {0: 1, 1: -2, k: 2, k + 1: -2}
    return RationalFunc(_dict_to_list(num), _dict_to_list(den))


def _rank_gf(i: int, b: int) -> RationalFunc:
    den = {0: 1, 1: -i, b: i - 1}
    return RationalFunc([1], _dict_to_list(den))


# name -> builder of the form from the keyword parameters; "t" defaults to "sym"
_FORMS = {
    "thm1": lambda p: RationalFunc([1, 0, -2], [1, -2, -2, 2]),
    "stern-u2": lambda p: RationalFunc([1, -2], [1, -5, 2]),
    "thm1t": lambda p: _sq_sum_kbonacci(2, p.get("t", "sym")),
    "vk2n": lambda p: _sq_sum_kbonacci(int(p["k"]), p.get("t", "sym")),
    "conj-v3k": lambda p: _cube_sum_kbonacci(int(p["k"]), p.get("t", "sym")),
    "conj-v3k-fitted": lambda p: _cube_sum_kbonacci_fitted(int(p["k"]), p.get("t", "sym")),
    "v2m1": lambda p: RationalFunc([1, 0, 2], [1, -2, 2, -2]),
    "w-example": lambda p: RationalFunc(
        [1, -4, -5, 24, 4, -34, 2, 10, -4],
        [1, -7, 1, 47, -32, -84, 50, 34, -18],
    ),
    "J3": lambda p: _cube_sum_kbonacci(2, 1),
    "J4": lambda p: _power_sum_kbonacci_unit(4, 2),
    "J5": lambda p: _power_sum_kbonacci_unit(5, 2),
    "J6": lambda p: _power_sum_kbonacci_unit(6, 2),
    "J7": lambda p: _power_sum_kbonacci_unit(7, 2),
    "Jalpha": lambda p: RationalFunc(*_MULTI_INDEX_DATA[tuple(int(v) for v in p["alpha"])]),
    "J4k": lambda p: _power_sum_kbonacci_unit(4, int(p["k"])),
    "J5k": lambda p: _power_sum_kbonacci_unit(5, int(p["k"])),
    "J6k": lambda p: _power_sum_kbonacci_unit(6, int(p["k"])),
    "J7k": lambda p: _power_sum_kbonacci_unit(7, int(p["k"])),
    "H": lambda p: RationalFunc(*_CONGRUENCE_DATA[(int(p["m"]), int(p["a"]))]),
    "Hk21": lambda p: _congruence_kbonacci_21(int(p["k"])),
    "H31k2": lambda p: RationalFunc(*_CONGRUENCE_DATA[(3, 1)]),
    "H31k3": lambda p: RationalFunc(
        [1, -2, 0, 4, -6, 0, 8, -10, 0, 8, -6],
        [1, -4, 4, 4, -12, 8, 8, -20, 11, 8, -12, 4],
    ),
    "phi": lambda p: _rank_gf(int(p["i"]), int(p["b"])),
}

CATALOG_NAMES = tuple(_FORMS)


def closed_form(name: str, **params) -> RationalFunc:
    """The exact catalog form named ``name`` (see CATALOG_NAMES)."""
    if name not in _FORMS:
        raise ValueError(f"unknown closed form {name!r}")
    return _FORMS[name](params)


MULTI_INDEX_ALPHAS = tuple(_MULTI_INDEX_DATA.keys())
