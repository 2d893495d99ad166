import cmath
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
import scipy.special

import grouplie
from grouplie.bessel import (
    bessel_j,
    default_truncation,
    deviation,
    exp_cyclic,
    exp_matrix_oracle,
)
from grouplie.errors import BadParameters, TruncationInsufficient


def test_series_at_zero():
    assert bessel_j(0, 0) == 1.0
    for m in (1, 2, 5, -3):
        assert bessel_j(m, 0) == 0.0


def test_negative_order_symmetry():
    rng = random.Random(0)
    for _ in range(20):
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for m in range(1, 6):
            assert abs(bessel_j(-m, w) - (-1) ** m * bessel_j(m, w)) < 1e-12


def test_against_scipy():
    for m in range(6):
        for x in (0.3, 1.0, 1.7, 2.5):
            assert abs(bessel_j(m, x) - scipy.special.jv(m, x)) < 1e-12


def test_normalization_sum():
    total = bessel_j(0, 1.0) ** 2 + 2 * sum(
        bessel_j(m, 1.0) ** 2 for m in range(1, 41)
    )
    assert abs(total - 1.0) < 1e-12


def test_exp_cyclic_z_zero():
    e = exp_cyclic(5, 1.0, 0.0)
    assert e.coefficients[0] == 1.0 + 0j
    assert all(c == 0 for c in e.coefficients[1:])


def test_exp_cyclic_n2_omega1():
    # y - y^-1 = 0 in Z/2, so the exponential is the identity
    e = exp_cyclic(2, 1.0, 1.3)
    assert abs(e.coefficients[0] - 1.0) < 1e-12
    assert abs(e.coefficients[1]) < 1e-12


def test_exp_cyclic_matches_oracle_n4():
    e = exp_cyclic(4, 1.0, 1.0)
    assert deviation(e, exp_matrix_oracle(4, 1.0, 1.0)) < 1e-10


def test_oracle_identity_column():
    col = exp_matrix_oracle(6, 1.0, 0.0)
    assert abs(col[0] - 1) < 1e-14
    assert max(abs(c) for c in col[1:]) < 1e-14


def test_oracle_against_dft_diagonalization():
    # eigenvalue (z/2)(lam - omega/lam) at each root of unity lam
    n, z = 3, 1.0
    omega = 1.0
    lams = [cmath.exp(2j * cmath.pi * j / n) for j in range(n)]
    eigs = [cmath.exp((z / 2) * (lam - omega / lam)) for lam in lams]
    coeffs = [sum(eigs[j] * lams[j] ** (-r) for j in range(n)) / n for r in range(n)]
    oracle = exp_matrix_oracle(n, omega, z)
    assert max(abs(a - b) for a, b in zip(coeffs, oracle)) < 1e-12


def test_tail_bound_is_finite_until_the_exp_factor_overflows():
    # (|z|/2)^191 and 191! overflow a double, though their quotient is tiny
    assert math.isfinite(exp_cyclic(4, 1.0, 40.0).error_bound)
    with pytest.raises(TruncationInsufficient, match="raise the truncation above 190"):
        exp_cyclic(4, 1.0, 40.0, tol=1e-9)
    with pytest.raises(TruncationInsufficient, match="no truncation gives a finite bound"):
        exp_cyclic(4, 1.0, 54.0, tol=1e-9)


def test_grid_against_oracle():
    for n in range(2, 13):
        for k in range(n):
            omega = cmath.exp(2j * cmath.pi * k / n)
            for z in (0.0, 1.0, 0.7 + 0.3j, 2j):
                e = exp_cyclic(n, omega, z)
                assert deviation(e, exp_matrix_oracle(n, omega, z)) < 1e-9
                assert e.error_bound < 1e-9


def test_phi_sign_invariance():
    omega = cmath.exp(2j * cmath.pi / 6)
    phi = cmath.sqrt(omega)
    z = 0.7 + 0.3j
    e1 = exp_cyclic(6, omega, z, phi=phi)
    e2 = exp_cyclic(6, omega, z, phi=-phi)
    assert max(abs(a - b) for a, b in zip(e1.coefficients, e2.coefficients)) < 1e-12


def test_one_parameter_subgroup():
    n = 5
    omega = cmath.exp(2j * cmath.pi / n)
    z1, z2 = 0.4 + 0.2j, 0.9 - 0.5j
    a = np.array(exp_cyclic(n, omega, z1).coefficients)
    b = np.array(exp_cyclic(n, omega, z2).coefficients)
    c = np.array(exp_cyclic(n, omega, z1 + z2).coefficients)
    conv = np.zeros(n, dtype=complex)
    for i in range(n):
        for j in range(n):
            conv[(i + j) % n] += a[i] * b[j]
    assert max(abs(conv - c)) < 1e-9


def test_truncation_insufficient():
    with pytest.raises(TruncationInsufficient):
        exp_cyclic(4, 1.0, 30.0, truncation=6, tol=1e-9)


def test_bad_parameters():
    with pytest.raises(BadParameters):
        exp_cyclic(1, 1.0, 1.0)
    # above the order cap, before any series or dense matrix is formed
    with pytest.raises(BadParameters, match=r"in \[2, 1024\], got 1025"):
        exp_cyclic(1025, 1.0, 1.0)
    with pytest.raises(BadParameters, match=r"in \[2, 1024\], got 1025"):
        exp_matrix_oracle(1025, 1.0, 1.0)
    with pytest.raises(BadParameters):
        exp_cyclic(4, 2.0, 1.0)
    with pytest.raises(BadParameters):
        exp_cyclic(8, 1.0, 1.0, truncation=3)


def test_default_truncation():
    assert default_truncation(4, 0) == max(4, 30)
    assert default_truncation(12, 10.0) == max(12, 70)


def test_bessel_grid_script_runs():
    # scripts/bessel_grid.py sweeps the fold against the oracle for N <= 4
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(grouplie.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, os.path.join(root, "scripts", "bessel_grid.py"),
                          "--max-n", "4"], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert any(line.startswith("overall worst ") for line in out.stdout.splitlines())


def test_import_loads_neither_scipy_nor_mpmath():
    probe = ("import sys, grouplie; "
             "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath'}))")
    src = os.path.dirname(os.path.dirname(grouplie.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"
