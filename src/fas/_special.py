"""The package's one route to scipy.special, and a J0 that needs none.

`sp` is scipy.special, imported on first attribute access: importing it
costs a fresh process about 0.2 s, and `fas envelope` needs no function of
it.  Every module reaches scipy.special, its private `_ufuncs` included,
through this handle and imports no scipy at module level.

`j0` is Bessel J0 in numpy: the Cephes `j0` (S. L. Moshier) that
scipy.special.j0 also evaluates, with its coefficients, Horner order and
branches, and equal to it bit for bit.
"""
from __future__ import annotations

import importlib

import numpy as np


class _LazyModule:
    """A module imported on the first read of one of its attributes.  Each
    attribute read is then cached on the handle, so a later read is an
    instance-dict lookup."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        # only reached on a cache miss; dunder probes (copy, inspect) must
        # not import the module
        if attr.startswith("__"):
            raise AttributeError(attr)
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value


sp = _LazyModule("scipy.special")

# Cephes j0.c: P(z)/Q(z) and the modulus and phase rational functions of
# 25/x^2, highest power first
_PP = (7.96936729297347051624e-4, 8.28352392107440799803e-2,
       1.23953371646414299388e0, 5.44725003058768775090e0,
       8.74716500199817011941e0, 5.30324038235394892183e0,
       9.99999999999999997821e-1)
_PQ = (9.24408810558863637013e-4, 8.56288474354474431428e-2,
       1.25352743901058953537e0, 5.47097740330417105182e0,
       8.76190883237069594232e0, 5.30605288235394617618e0,
       1.00000000000000000218e0)
_QP = (-1.13663838898469149931e-2, -1.28252718670509318512e0,
       -1.95539544257735972385e1, -9.32060152123768231369e1,
       -1.77681167980488050595e2, -1.47077505154951170175e2,
       -5.14105326766599330220e1, -6.05014350600728481186e0)
_QQ = (6.43178256118178023184e1, 8.56430025976980587198e2,
       3.88240183605401609683e3, 7.24046774195652478189e3,
       5.93072701187316984827e3, 2.06209331660327847417e3,
       2.42005740240291393179e2)  # after a leading 1
# squares of the first two zeros of J0, and R(z)/S(z) on [0, 5]
_DR1 = 5.78318596294678452118e0
_DR2 = 3.04712623436620863991e1
_RP = (-4.79443220978201773821e9, 1.95617491946556577543e12,
       -2.49248344360967716204e14, 9.70862251047306323952e15)
_RQ = (4.99563147152651017219e2, 1.73785401676374683123e5,
       4.84409658339962045305e7, 1.11855537045356834862e10,
       2.11277520115489217587e12, 3.10518229857422583814e14,
       3.18121955943204943306e16, 1.71086294081043136091e18)  # after a 1
_SQ2OPI = 7.9788456080286535587989e-1  # sqrt(2 / pi)
_PI_4 = 7.85398163397448309616e-1


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    # _polevl with a leading coefficient of 1 that is not stored
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def j0(x) -> np.ndarray:
    """Bessel J0 elementwise, as a float array: scipy.special.j0's value bit
    for bit, NaN at +-inf and NaN included.

    Up to 5 it is (z - r1)(z - r2) R(z)/S(z) in z = x^2, with r1 and r2 the
    squared first zeros, and 1 - z/4 below 1e-5.  Beyond 5 it is the
    Hankel form sqrt(2/(pi x)) (P cos(x - pi/4) - (5/x) Q sin(x - pi/4)),
    P and Q rational in 25/x^2.
    """
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty(x.shape)
    near = x <= 5.0
    z = x[near] ** 2
    series = (z - _DR1) * (z - _DR2) * _polevl(z, _RP) / _p1evl(z, _RQ)
    out[near] = np.where(x[near] < 1e-5, 1.0 - z / 4.0, series)
    far = x[~near]
    w = 5.0 / far
    # x^2 overflows beyond ~1.3e154, where 25/x^2 is 0 all the same; and
    # cos and sin of inf are NaN, as scipy's J0 there
    with np.errstate(over="ignore", invalid="ignore"):
        q = 25.0 / (far * far)
        p = _polevl(q, _PP) / _polevl(q, _PQ)
        q = _polevl(q, _QP) / _p1evl(q, _QQ)
        phase = far - _PI_4
        p = p * np.cos(phase) - w * q * np.sin(phase)
    out[~near] = p * _SQ2OPI / np.sqrt(far)
    return out
