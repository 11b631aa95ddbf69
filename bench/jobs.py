"""Workloads of the rsexact benchmark and the seeded choice of their jobs.

A workload is a fixed list of job shapes.  Each shape is a CLI argv
template with a short list of variants: the character indices
(``--theta``, ``--theta2``, ``--sigma``) and the banal ``ell``.  The
variants of one shape cost the same, so the seed changes the inputs but not
the cost class of a job:

* depth-zero thetas are Frobenius conjugates (theta, q theta, ...): they
  index the same cuspidal type, so the run computes the same values;
* ramified sigmas are the characters of F_p^x of the same order;
* the ells of a shape agree mod the conductor of the pair (24, 24, 120, 18
  below), so the residue field has the same degree and the same number of
  primes above ell.

The default seed picks the first variant of every shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Shape:
    template: str
    variants: tuple
    exit_code: int = 0

    def argv(self, variant: dict) -> list[str]:
        return self.template.format(**variant).split()


def _thetas(*values):
    return tuple({"theta": t} for t in values)


def _grid(**axes):
    """Every combination of the given axis values, first values first."""
    combos = [{}]
    for name, values in axes.items():
        combos = [dict(c, **{name: v}) for c in combos for v in values]
    return tuple(combos)


# The Frobenius orbit of theta = 1: the powers of q mod q^n - 1.
Q3 = (1, 3)
Q5 = (1, 5)
Q7 = (1, 7)
Q2_GL3 = (1, 2, 4)

WORKLOADS = {
    # Depth-zero verify: iwasawa_NAK (n = 2 and n = 3), the depth-zero
    # support_decompose, the oracle and the only multi-process path.
    "dz-verify": (
        Shape("verify --q 3 --theta {theta}", _thetas(*Q3)),
        Shape("verify --q 3 --theta {theta} --A2 zeta(4)", _thetas(*Q3)),
        Shape(
            "verify --q 3 --theta {theta} --theta2 {theta2}",
            tuple({"theta": t, "theta2": 2 * t} for t in Q3),
        ),
        Shape("verify --q 5 --theta {theta}", _thetas(*Q5)),
        Shape("verify --q 7 --theta {theta}", _thetas(*Q7)),
        Shape("verify --q 2 --n 3 --gl3 --theta {theta}", _thetas(*Q2_GL3)),
        Shape("oracle-check --q 3 --theta {theta} --jobs 2", _thetas(*Q3)),
    ),
    # Ramified verify: PadicMatrix products, the ramified support_decompose,
    # lambda/theta_eval and j1_average_report; no Iwasawa or Bessel work.
    "ram-verify": (
        Shape("verify --family ramified --p 3 --sigma {sigma}", ({"sigma": 1},)),
        Shape(
            "verify --family ramified --p 3 --sigma {sigma} --sigma2 {sigma2}",
            ({"sigma": 1, "sigma2": 0},),
        ),
        Shape("verify --family ramified --p 5 --sigma {sigma}",
              ({"sigma": 1}, {"sigma": 3})),
    ),
    # The same engine over the residue field, plus finite-group tables.
    "finite-reduce": (
        Shape("reduce --q 3 --theta {theta} --ell {ell}",
              _grid(theta=Q3, ell=(5, 29, 53))),
        Shape("reduce --q 3 --theta {theta} --ell {ell} --ideal 1",
              _grid(theta=Q3, ell=(7, 31, 79))),
        Shape("reduce --q 5 --theta {theta} --ell {ell}",
              _grid(theta=Q5, ell=(7, 127, 367))),
        Shape("reduce --family ramified --p 3 --sigma {sigma} --ell {ell}",
              _grid(sigma=(1,), ell=(7, 43, 61))),
        Shape("reduce --q 2 --theta {theta} --ell 3", _thetas(1, 2), exit_code=3),
        Shape("bessel-table --q 3 --theta {theta}", _thetas(*Q3)),
        Shape("bessel-table --q 2 --n 3 --gl3 --theta {theta}", _thetas(*Q2_GL3)),
    ),
}


@dataclass(frozen=True)
class Job:
    argv: tuple
    exit_code: int

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def jobs_for(workload: str, seed: int = DEFAULT_SEED) -> list[Job]:
    """The jobs of `workload` under `seed`, in run order."""
    rng = random.Random(seed)
    jobs = []
    for shape in WORKLOADS[workload]:
        pick = rng.randrange(len(shape.variants))
        variant = shape.variants[0 if seed == DEFAULT_SEED else pick]
        jobs.append(Job(tuple(shape.argv(variant)), shape.exit_code))
    return jobs


def all_jobs() -> list[Job]:
    """Every job any seed can produce, for building the reference."""
    return [
        Job(tuple(shape.argv(v)), shape.exit_code)
        for shapes in WORKLOADS.values()
        for shape in shapes
        for v in shape.variants
    ]
