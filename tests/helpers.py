"""Shared generators for test corpora.

Random elements and forms are built from seeded `random.Random` instances so
every corpus is reproducible.  Form generators draw from the tame class
(unit-shaped entries whose residues stay units recursively), optionally with
wild dim<=2 ingredients where a test wants them.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

from qf2.fieldtower import FieldDescriptor, FieldElem, parse_field
from qf2.forms import QuadraticForm

K1 = parse_field("F2((t))")
K2 = parse_field("F2((s))((t))")
K3 = parse_field("F2((s))((t))((u))")


def random_elem(K: FieldDescriptor, rng: random.Random, deg: int = 2,
                nonzero: bool = False) -> FieldElem:
    """A random fraction with numerator/denominator degree <= deg."""
    while True:
        num = _random_poly(K, rng, deg)
        den = _random_poly(K, rng, deg)
        if den.is_zero():
            continue
        x = num / den
        if not nonzero or not x.is_zero():
            return x


def _random_poly(K: FieldDescriptor, rng: random.Random, deg: int) -> FieldElem:
    if K.level == 0:
        return K.from_base(rng.randrange(1 << K.base_exponent))
    t = K.var(K.top_variable)
    acc = K.zero()
    for i in range(deg + 1):
        if rng.random() < 0.6:
            c = _random_poly(K.lower(), rng, max(1, deg - 1))
            acc = acc + c.lift_to(K) * t ** i
    return acc


def random_unit(K: FieldDescriptor, rng: random.Random, deg: int = 1) -> FieldElem:
    """A unit at every level: nonzero constant term recursively."""
    if K.level == 0:
        return K.from_base(rng.randrange(1, 1 << K.base_exponent))
    t = K.var(K.top_variable)
    acc = random_unit(K.lower(), rng, deg).lift_to(K)
    for i in range(1, deg + 1):
        if rng.random() < 0.5:
            c = random_elem(K.lower(), rng, deg=1)
            acc = acc + c.lift_to(K) * t ** i
    return acc


def tame_block(K: FieldDescriptor, rng: random.Random):
    """A block (a, b) that normalizes at every level: a = unit * monomial
    with exponent in {0,1} per variable, b = unit * the complementary
    monomial, so a*b is a unit all the way down."""
    a = random_unit(K, rng)
    b = random_unit(K, rng)
    sub = K
    scale_a = K.one()
    scale_b = K.one()
    for v in K.variables:
        if rng.random() < 0.4:
            tv = K.var(v)
            scale_a = scale_a * tv
            scale_b = scale_b / tv
    return a * scale_a, b * scale_b


def random_tame_form(K: FieldDescriptor, rng: random.Random, blocks: int,
                     quasilinear: int = 0) -> QuadraticForm:
    bl = [tame_block(K, rng) for _ in range(blocks)]
    ql = []
    for _ in range(quasilinear):
        c = random_unit(K, rng)
        for v in K.variables:
            if rng.random() < 0.4:
                c = c * K.var(v)
        ql.append(c)
    return QuadraticForm(K, tuple(bl), tuple(ql))


def retamed_block(K: FieldDescriptor, rng: random.Random):
    """A block a*[1, u + z^2 + z] whose product has a pole but a tame class:
    z = sum of c_k t^-k over a random nonempty subset of k in {1, 2, 3},
    c_k in {1, s} (s the first variable below the top), u a random unit.
    a = c * t^j with c a unit constant in t and j in {-1, 0, 1}, so forming
    b = (u + z^2 + z)/a stays inside the degree cap."""
    t = K.var(K.top_variable)
    coeffs = [K.one()] + [K.var(v) for v in K.variables[:1] if K.level > 1]
    z = K.zero()
    while z.is_zero():
        for k in (1, 2, 3):
            if rng.random() < 0.5:
                z = z + rng.choice(coeffs) * t ** -k
    a = random_unit(K.lower(), rng).lift_to(K) * t ** rng.choice([-1, 0, 1])
    u = random_unit(K, rng)
    return a, (u + z * z + z) / a


def random_retamed_form(K: FieldDescriptor, rng: random.Random) -> QuadraticForm:
    """1-3 blocks, each retamed_block with probability 0.6 and tame_block
    otherwise, plus 0-1 unit quasilinear entries."""
    bl = tuple(retamed_block(K, rng) if rng.random() < 0.6
               else tame_block(K, rng) for _ in range(rng.randint(1, 3)))
    ql = tuple(random_unit(K, rng) for _ in range(rng.choice([0, 1])))
    return QuadraticForm(K, bl, ql)


def checkout_env():
    """The environment for a Python subprocess that imports this checkout's
    qf2: `pythonpath` in pyproject.toml reaches only the pytest process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_optimized(code):
    """Run code in a `python -O` subprocess that imports this checkout."""
    return subprocess.run([sys.executable, "-O", "-c", code],
                          env=checkout_env(), capture_output=True, text=True)
