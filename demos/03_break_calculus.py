#!/usr/bin/env python3
"""The upper/lower break calculus: conversion, composition, and the
two-break case split for a central C_p x C_p step.

Upper numbering is the one compatible with quotients; it is where
nonintegral values can appear.  Lower breaks are always integers, and a
claimed upper multiset whose inversion is nonintegral is unrealizable.
"""

from collections import Counter
from fractions import Fraction

from ramforge.ramcalc import (
    BreakMultiset,
    compose_disjoint,
    fact1_resolve,
    lower_to_upper,
    parse_multiset,
    upper_to_lower,
)

lo = BreakMultiset("lower", 1, 3, (1, 10, 13))
up = lower_to_upper(lo)
print("lower  :", lo)
print("upper  :", up, "   <- 13/3 is not an integer")
print("inverse:", upper_to_lower(up))

print()
print("tame degree m enters the first slope:")
print("lower m=2 p=3 : 3  ->", lower_to_upper(parse_multiset("lower m=2 p=3 : 3")))

print()
print("disjoint composita just take unions:")
print(compose_disjoint(parse_multiset("upper m=1 p=3 : 1"), parse_multiset("upper m=1 p=3 : 4")))

print()
print("quotient compatibility is sub-multiset containment:")
quotient = parse_multiset("upper m=1 p=3 : 1, 4")
print("{1,4} inside {1,4,13/3}:", Counter(quotient.breaks) <= Counter(up.breaks))

print()
print("case split for a central C_p^2 step adding breaks u < v:")
res = fact1_resolve(parse_multiset("upper m=1 p=3 :"), 1, 4)
print("  corresponding lower breaks:", res.lower_u, "and", res.lower_v)
print("  the distinguished field keeps u:", res.l0_breaks,
      "with relative break", res.l0_relative_break)
print("  every other field keeps v:     ", res.other_breaks,
      "with relative break", res.other_relative_break)

print()
print("unrealizable multisets are rejected:")
try:
    upper_to_lower(BreakMultiset("upper", 1, 3, (Fraction(1), Fraction(3, 2))))
except Exception as exc:
    print(" ", exc)
