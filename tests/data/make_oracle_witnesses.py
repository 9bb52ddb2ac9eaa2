"""Regenerate tests/data/oracle_witnesses.json.

    PYTHONPATH=src python tests/data/make_oracle_witnesses.py

Every entry records what `brute_force_search(phi, 6, budget)` returns on one
form: the rendered witness, null, or the `BudgetExceeded` message.  The
corpus is criterion 2's 500 forms (budget 40 000), the forms of the
benchmark's `cli` batch for seeds 1-3 and a few F4((t)) forms (default
budget); a form that occurs twice is recorded once.  The file pins the
oracle's output, so a rewrite of the search must return the same witness on
every form; rerunning this script after such a rewrite must reproduce the
file byte for byte.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "tests")]

from bench.corpus import cli_jobs  # noqa: E402
from helpers import K1, K2, random_tame_form  # noqa: E402
from qf2.cli import parse_job  # noqa: E402
from qf2.errors import BudgetExceeded  # noqa: E402
from qf2.fieldtower import parse_field, render_element  # noqa: E402
from qf2.forms import parse_form, render_form  # noqa: E402
from qf2.witt import brute_force_search  # noqa: E402

DEGREE_BOUND = 6
DEFAULT_BUDGET = 200_000
F4_FORMS = ("[1,1]", "[1,t]+<t+1>", "[t,1/t]+[1,t^2]", "<1,t,t+1>")


def criterion_2_forms():
    """The corpus of test_acceptance.test_criterion_2_oracle_agreement."""
    rng = random.Random(20240802)
    out = []
    for count, blocks, ql, K in ((300, (1, 2), (0, 1), K2),
                                 (120, (1, 2), (0, 1), K1),
                                 (80, (2, 3), (0,), K2)):
        for _ in range(count):
            phi = random_tame_form(K, rng, rng.choice(blocks),
                                   quasilinear=rng.choice(ql))
            out.append((K.render(), render_form(phi), phi))
    return out


def cli_forms():
    seen = []
    for seed in (1, 2, 3):
        for line in cli_jobs(seed):
            job = parse_job(line)
            for text in job.form_texts:
                if (job.field_text, text) not in seen:
                    seen.append((job.field_text, text))
    return seen


def corpus():
    """(field text, form text, budget) triples."""
    out = []
    for field, text, phi in criterion_2_forms():
        # the rendered text must parse back to the same form
        assert parse_form(parse_field(field), text) == phi, text
        out.append((field, text, 40_000))
    out += [(field, text, DEFAULT_BUDGET) for field, text in cli_forms()]
    out += [("F4((t))", text, DEFAULT_BUDGET) for text in F4_FORMS]
    return list(dict.fromkeys(out))


def search(field, text, budget):
    phi = parse_form(parse_field(field), text)
    try:
        wit = brute_force_search(phi, DEGREE_BOUND, budget=budget)
    except BudgetExceeded as exc:
        return {"budget_exceeded": str(exc)}
    return [render_element(x) for x in wit] if wit is not None else None


def main():
    entries = [{"field": field, "form": text, "budget": budget,
                "result": search(field, text, budget)}
               for field, text, budget in corpus()]
    doc = {"degree_bound": DEGREE_BOUND, "entries": entries}
    path = Path(__file__).with_name("oracle_witnesses.json")
    path.write_text(json.dumps(doc, indent=1) + "\n")
    found = sum(isinstance(e["result"], list) for e in entries)
    print(f"{len(entries)} forms, {found} witnesses -> {path}")


if __name__ == "__main__":
    main()
