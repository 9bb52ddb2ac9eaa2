"""The Pfister-neighbour witness search over the whole candidate grid: the
reference that `qf2.pfister._search_witness`, which drops the slot pairs
whose Pfister forms are hyperbolic by construction, is compared against.

`search_witness` builds and decides every spec <<a_1,a_2; b]] of
pool^2 x pool in product order, and tries each lam of the pool against each
anisotropic one, counting those tries against `pfister._SEARCH_BUDGET` (read
at call time, so a test that patches the budget patches this search too).
"""

import itertools

from qf2 import pfister
from qf2.forms import scale
from qf2.witt import decide_isotropy


def search_witness(phi):
    """First verified (lam, spec) with phi inside lam * pi, or None."""
    pool = pfister.default_slot_pool(phi)
    tried = 0
    for slots in itertools.product(pool, repeat=2):
        for quad in pool:
            spec = pfister.PfisterSpec(phi.field, tuple(slots), quad)
            pi = pfister.make_pfister(spec)
            if not decide_isotropy(pi).is_anisotropic:
                continue
            for lam in pool:
                tried += 1
                if tried > pfister._SEARCH_BUDGET:
                    return None
                if pfister._embeds(phi, scale(lam, pi)):
                    return lam, spec
    return None
