#!/usr/bin/env python3
"""Arithmetic in F = K(y) with y^3 = y + pi^-1 and the in-extension
reduction that certifies the interior break of the order-27 tower.

With b = 1 and a = 4 the datum alpha*y + r*alpha*beta has valuation
divisible by p, so its break is invisible; one exact wp-subtraction
moves it to valuation -11, certifying break 11 = 2b + p(a-b).
"""

from ramforge.astower import ASExtension, as_reduce_F
from ramforge.laurent import monomial

WINDOW = 240

beta = monomial(3, 1, -1, -1 + WINDOW)
ext = ASExtension(3, beta)
y = ext.y()

print("extension      :", ext)
print("v_F(y)         :", y.valuation())
print("y^3            :", (y * y * y).to_text()[:60], "...")
print("v_F(pi)        :", ext.element({0: monomial(3, 1, 1, WINDOW)}).valuation())

# the tower datum for (p, b, a) = (3, 1, 4): t = s = 1, r = 2
alpha = monomial(3, 1, -3, -3 + WINDOW) * beta
delta = ext.element({0: alpha * beta * 2, 1: alpha})
print()
print("datum valuation:", delta.valuation(), "(divisible by 3: not yet a break)")

res = as_reduce_F(delta)
print("outcome        :", res.outcome)
print("residual val   :", res.reduced.valuation(), "= -(2b + p(a-b)) = -(pa - pb + 2b)")
print("witness        :", res.witness.to_text()[:70], "...")
print("identity check :", (delta - res.witness.wp() - res.reduced).is_zero())

# an exact image reduces to the zero class
print()
print("wp(y) reduces to:", as_reduce_F(y.wp()).outcome)
