"""What one item of each in-process workload computes, and how its output is
checked.

`run_*` computes an item and returns its output record; `check_*` returns
the list of failed checks for a record (empty when it is right).  The checks
are identities that hold for every input, so they do not depend on the seed.
`summary` gives the canonical text of a record that the output digest hashes.

Library functions are looked up on their modules at call time, so that the
tracer's wrappers see the benchmark's own calls too.
"""

from qf2 import chow, clifford, fieldtower, forms, witt
from qf2.errors import DegreeOverflow, QF2Error, Undecided
from qf2.fieldtower import render_element

# Typed refusals the library documents: answers, not failures.
REFUSALS = ("RangeViolation", "OddDimension", "Degenerate", "DimensionCap",
            "NotAlbert")


class ItemFailed(Exception):
    """An item that raised an unexpected exception."""


class ItemOverflowed(ItemFailed):
    """An item that raised DegreeOverflow: the library's degree cap refused
    it.  Not a wrong answer, and not a failure of the run; `ok_frac` reports
    the share of such items."""


# ---------------------------------------------------------------------------
# kernel

def run_kernel(item):
    _label, _K, (na, da, nb, db) = item
    try:
        a = na / da
        b = nb / db
        return {"a": a, "b": b, "x": a * b + a / b, "y": a ** 2 + b,
                "square": fieldtower.is_square(a),
                "wp": fieldtower.wp_reduce(a),
                "val": fieldtower.valuation_split(a)}
    except DegreeOverflow as exc:
        raise ItemOverflowed("DegreeOverflow") from exc


def check_kernel(out):
    a, b = out["a"], out["b"]
    K = a.field
    bad = []
    if (out["x"] + a * b) * b != a:
        bad.append("x = a*b + a/b")
    if out["y"] + b != a * a:
        bad.append("y = a**2 + b")
    if (a / b) * b != a:
        bad.append("(a/b)*b == a")
    if (a + b) + b != a:
        bad.append("(a+b)+b == a")
    square, root = out["square"]
    if square and root * root != a:
        bad.append("is_square root")
    if not fieldtower.is_square(a * a)[0]:
        bad.append("is_square(a*a)")
    if not fieldtower.wp_member(a * a + a):
        bad.append("wp_member(a*a + a)")
    v, u = out["val"]
    if u * K.var(K.top_variable) ** v != a or \
            fieldtower.valuation_split(u)[0] != 0:
        bad.append("valuation_split")
    return bad


def summary_kernel(out):
    square, _root = out["square"]
    return "|".join((render_element(out["x"]), render_element(out["y"]),
                     str(square), repr(out["wp"].to_json()),
                     str(out["val"][0])))


def verdicts_kernel(out):
    """is_square is the kernel's only decision, and it always decides."""
    return 1, 0


# ---------------------------------------------------------------------------
# engine

def _answer(fn, arg):
    """Run one pipeline stage; typed refusals and Undecided are answers."""
    try:
        return fn(arg)
    except DegreeOverflow as exc:
        raise ItemOverflowed("DegreeOverflow") from exc
    except Undecided as exc:
        return ("Undecided", str(exc))
    except QF2Error as exc:
        if type(exc).__name__ in REFUSALS:
            return (type(exc).__name__, str(exc))
        raise ItemFailed(type(exc).__name__) from exc


def run_engine(item):
    _label, phi, gram, _double = item
    out = {"phi": phi, "gram": gram,
           "normal_form": _answer(forms.normal_form_trace, gram),
           "isotropy": _answer(witt.decide_isotropy, phi),
           "witt": _answer(witt.witt_decompose, phi),
           "splitting": _answer(clifford.splitting_index, phi)}
    if phi.is_nonsingular:
        out["clifford"] = _answer(clifford.even_clifford_class, phi)
    if phi.dim >= 3:
        out["chow2"] = _answer(chow.chow2_torsion, phi)
        out["chow3"] = _answer(chow.chow3_torsion, phi)
    return out


def _refused(value):
    return isinstance(value, tuple) and len(value) == 2 and \
        isinstance(value[0], str)


def check_engine(out, double):
    phi = out["phi"]
    K, n = phi.field, phi.dim
    bad = []
    nf = out["normal_form"]
    if not _refused(nf):
        form, basis = nf
        vals = [x for pair in form.blocks for x in pair] + \
            list(form.quasilinear)
        gram = out["gram"]
        if form.dim != n or len(basis) != n or any(
                gram.evaluate(v) != c for v, c in zip(basis, vals)) or any(
                gram.polar(basis[2 * i], basis[2 * i + 1]) != K.one()
                for i in range(len(form.blocks))):
            bad.append("normal form and its basis")
    iso = out["isotropy"]
    if not _refused(iso) and iso.witness is not None:
        if all(x.is_zero() for x in iso.witness) or \
                not phi.evaluate(iso.witness).is_zero():
            bad.append("isotropy witness is a zero")
    dec = out["witt"]
    if not _refused(dec):
        if 2 * dec.witt_index + dec.kernel.dim != n:
            bad.append("2*i_W + dim kernel == dim")
        if double and (dec.witt_index != n // 2 or dec.kernel.dim != 0):
            bad.append("q+q is hyperbolic")
        if not _refused(iso) and not iso.is_unknown and \
                iso.is_anisotropic != (dec.witt_index == 0):
            bad.append("isotropy agrees with the Witt index")
    elif double:
        bad.append("q+q is hyperbolic")
    split = out["splitting"]
    if not _refused(split) and split.resolved:
        ind = split.ind_low
        if split.ind_high != ind or ind & (ind - 1) or \
                split.s + ind.bit_length() - 1 != (n - 1) // 2:
            bad.append("s + log2(ind) == (dim-1)//2")
    c3 = out.get("chow3")
    if c3 is not None and not _refused(c3) and c3.order not in (1, 2):
        bad.append("CH^3 torsion order <= 2")
    return bad


def summary_engine(out):
    parts = []
    for key in ("normal_form", "isotropy", "witt", "splitting", "clifford",
                "chow2", "chow3"):
        if key not in out:
            continue
        value = out[key]
        if _refused(value):
            parts.append(f"{key}:{value[0]}")
        elif key == "normal_form":
            parts.append(str(value[0]))
        elif key == "witt":
            parts.append(f"{value.witt_index}:{value.kernel}")
        else:
            parts.append(repr(value.to_json()))
    return "|".join(parts)


def verdicts_engine(out):
    """(verdicts, undecided): isotropy, the Witt decomposition, the
    splitting index and the Chow reports are verdicts; Unknown, AtMost,
    unresolved and Undecided count as undecided."""
    total = undecided = 0
    for key in ("isotropy", "witt", "splitting", "chow2", "chow3"):
        if key not in out:
            continue
        value = out[key]
        total += 1
        if _refused(value):
            undecided += value[0] == "Undecided"
        elif key == "isotropy":
            undecided += value.is_unknown
        elif key == "splitting":
            undecided += not value.resolved
        elif key in ("chow2", "chow3"):
            undecided += value.kind == "AtMost"
    return total, undecided
