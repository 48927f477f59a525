#!/usr/bin/env python3
"""Print how the leading large-x approximation of Gamma_k(x+1) closes in
on the scaling-route value as x doubles. The interesting column is
rel*x, which stays bounded while rel itself decays like 1/x."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from kspecial import gamma_k_scaling, gamma_k_stirling

print(f"{'k':>4} {'x':>6} {'exact':>22} {'approx':>22} {'rel':>10} {'rel*x':>8}")
for k in (1.0, 2.0, 3.0):
    for x in (10.0, 20.0, 40.0, 80.0, 160.0):
        exact = gamma_k_scaling(k, x + 1.0).value
        approx = gamma_k_stirling(k, x)
        rel = abs(exact - approx) / exact
        print(f"{k:>4.1f} {x:>6.1f} {exact:>22.12e} {approx:>22.12e} "
              f"{rel:>10.3e} {rel * x:>8.4f}")
    print()
