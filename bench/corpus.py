"""Seeded inputs for the three benchmark workloads.

The generators are ported from the test suite's helpers rather than imported,
so that editing the tests cannot shift the workloads.  Every input is drawn
from a `random.Random` keyed by (workload, seed, cycle), so the same seed
gives the same inputs and cycle k of a run is the same whether the run is
timed, traced or recounted.

A cycle is a fixed stratified list of items; only the coefficients come from
the seed.  Fixing the per-cycle mix keeps the cost of a cycle close across
seeds, which is what keeps the end-to-end figures steady.
"""

import random

from qf2.fieldtower import parse_field
from qf2.forms import GramInput, QuadraticForm, orthogonal_sum, render_form

K1 = parse_field("F2((t))")
K2 = parse_field("F2((s))((t))")
K3 = parse_field("F2((s))((t))((u))")
F4 = parse_field("F4((t))")


def rng_for(workload, seed, cycle):
    return random.Random(f"{workload}:{seed}:{cycle}")


# ---------------------------------------------------------------------------
# Element and form generators.

def random_poly(K, rng, deg):
    """A polynomial in the top variable whose coefficients are polynomials
    one level down (degree max(1, deg - 1)); no division, so building it
    never overflows."""
    if K.level == 0:
        return K.from_base(rng.randrange(1 << K.base_exponent))
    t = K.var(K.top_variable)
    acc = K.zero()
    for i in range(deg + 1):
        if rng.random() < 0.6:
            c = random_poly(K.lower(), rng, max(1, deg - 1))
            acc = acc + c.lift_to(K) * t ** i
    return acc


def nonzero_poly(K, rng, deg):
    while True:
        p = random_poly(K, rng, deg)
        if not p.is_zero():
            return p


def random_elem(K, rng, deg=1):
    """num/den with numerator and denominator degree <= deg."""
    return nonzero_poly(K, rng, deg) / nonzero_poly(K, rng, deg)


def random_unit(K, rng, deg=1):
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


def tame_block(K, rng):
    """(a, b) = (unit * m, unit / m) for a monomial m with exponents in
    {0, 1}, so a*b is a unit all the way down and the block normalises at
    every level."""
    a = random_unit(K, rng)
    b = random_unit(K, rng)
    for v in K.variables:
        if rng.random() < 0.4:
            tv = K.var(v)
            a = a * tv
            b = b / tv
    return a, b


def random_tame_form(K, rng, dim):
    """A tame nondegenerate form of the given dimension: dim // 2 blocks and
    one quasilinear entry when dim is odd."""
    blocks = tuple(tame_block(K, rng) for _ in range(dim // 2))
    ql = []
    for _ in range(dim % 2):
        c = random_unit(K, rng)
        for v in K.variables:
            if rng.random() < 0.4:
                c = c * K.var(v)
        ql.append(c)
    return QuadraticForm(K, blocks, tuple(ql))


def changed_gram(phi, rng):
    """Gram matrix of phi(Mx) for a seeded invertible 0/1 matrix M (a unit
    upper-triangular matrix with its columns permuted)."""
    K, n = phi.field, phi.dim
    one, zero = K.one(), K.zero()
    upper = [[one if i == j or (j > i and rng.random() < 0.3) else zero
              for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    cols = [[upper[r][perm[c]] for r in range(n)] for c in range(n)]
    rows = [[zero] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = phi.evaluate(cols[k])
        for j in range(k + 1, n):
            rows[k][j] = phi.polar(cols[k], cols[j])
    return GramInput(K, tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# kernel: FieldElem operands at levels 1-3 and over F4((t)).

KERNEL_FIELDS = (("L1", K1), ("F4", F4), ("L2", K2), ("L3", K3))
# items per cycle for each (field, degree); the costly levels get fewer so
# that no single level dominates a cycle's time.
KERNEL_MIX = {"L1": 4, "F4": 4, "L2": 2, "L3": 1}


def kernel_warmup(seed):
    """One degree-1 item per field, to fill the kernel's lazy tables."""
    return [item for item in kernel_cycle(seed, -1) if item[0].endswith("d1")]


def kernel_cycle(seed, cycle):
    """Items (label, K, (num_a, den_a, num_b, den_b)); each item divides
    the polynomials itself, so building a or b is part of the timed work."""
    rng = rng_for("kernel", seed, cycle)
    slots = [(name, K, deg) for name, K in KERNEL_FIELDS
             for deg in (1, 2, 3) for _ in range(KERNEL_MIX[name])]
    rng.shuffle(slots)
    return [(f"{name}.d{deg}", K,
             tuple(nonzero_poly(K, rng, deg) for _ in range(4)))
            for name, K, deg in slots]


# ---------------------------------------------------------------------------
# engine: the library decision pipeline, one form per item.

# (label, field, dims of q, orthogonal double, items per cycle per dim).
# The doubles stop at dim 12: a dim-16 double costs 0.5-1.7 s, so a cycle
# that holds them takes about 5 s, a 20-s run sees four cycles, and which
# forms those happen to be moves the run's figures by more than 10 %.  The
# level-2 doubles of dim 12 are the most even heavy stratum (0.25-0.4 s
# each); four of them per cycle are 9 % of its items, so the 90th
# percentile falls among them, not on the edge between strata whose costs
# vary tenfold with the coefficients.
ENGINE_STRATA = (
    ("L1", K1, range(2, 9), False, 2),
    ("L2", K2, range(2, 9), False, 2),
    ("L3", K3, range(2, 5), False, 2),
    ("D2", K2, (2, 4), True, 1),
    ("D2", K2, (6,), True, 4),
    ("D3", K3, (2, 4, 6), True, 1),
)


def engine_cycle(seed, cycle):
    """Items (label, form, changed Gram matrix, is_double).  Level-3 forms
    stay at dims 2-4: anisotropic level-3 forms of dims 5-8 send chow2_torsion
    into the Pfister witness search, which takes 6-178 s per form."""
    rng = rng_for("engine", seed, cycle)
    slots = [(label, K, dim, double) for label, K, dims, double, reps
             in ENGINE_STRATA for dim in dims for _ in range(reps)]
    rng.shuffle(slots)
    items = []
    for label, K, dim, double in slots:
        q = random_tame_form(K, rng, dim)
        phi = orthogonal_sum(q, q) if double else q
        items.append((f"{label}.dim{phi.dim}", phi, changed_gram(phi, rng),
                      double))
    return items


def engine_warmup(seed):
    """Small forms over each field, to fill the lazy tables."""
    rng = rng_for("engine", seed, -1)
    items = []
    for label, K in (("L1", K1), ("L2", K2), ("L3", K3)):
        phi = random_tame_form(K, rng, 3)
        items.append((f"{label}.dim3", phi, changed_gram(phi, rng), False))
    q = random_tame_form(K2, rng, 2)
    phi = orthogonal_sum(q, q)
    items.append(("D2.dim4", phi, changed_gram(phi, rng), True))
    return items


# ---------------------------------------------------------------------------
# cli: one --batch file.

# The batch corpus of the acceptance tests, copied verbatim.
ACCEPTANCE_JOBS = (
    "field F2((t)); form [1,t]; run witt,invariants",
    "field F2((t)); form [1,1]+t*[1,1]; run witt,clifford",
    "field F2((s))((t)); form [1,1]+s*[1,1]+<t>; run chow2,pfister",
    "field F2((s))((t)); form pf(s,t;1); run chow2",
    "field F2((s))((t)); form <1,s,t,s*t>; run witt",
    "field F2((s))((t)); form [0,0]+[1,1]+s*[1,1]; run witt,chow3",
    "field F4((t)); form [1,1]; run witt",
    "field F2((s))((t)); form [1,1]+s*[1,1]+t*[1,1]; run chow2,chow3",
)
PFISTER_JOB = "field F2((s))((t)); form pf(s,t;1); run all"


# Seeded `run all` jobs: one per (field, dim).  Level-2 forms stop at dim 5:
# a level-2 `run all` job of dim 6 or 7 takes 5-13 s, depending on the seed,
# which would put the seed on the batch's critical path; the pf(s,t;1) job
# (dim 8, level 2) holds it instead, at the same cost for every seed.
CLI_SEEDED = (("F2((t))", K1, range(3, 8)), ("F2((s))((t))", K2, range(3, 6)))


def cli_jobs(seed):
    """The batch lines: the acceptance corpus, the pf(s,t;1) report, and
    the seeded `run all` jobs."""
    rng = rng_for("cli", seed, 0)
    seeded = [
        f"field {text}; form {render_form(random_tame_form(K, rng, dim))}; "
        "run all" for text, K, dims in CLI_SEEDED for dim in dims]
    return list(ACCEPTANCE_JOBS) + [PFISTER_JOB] + seeded
