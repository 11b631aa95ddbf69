"""Command-line interface for the exact Rankin-Selberg toolkit.

Subcommands
-----------
bessel-table
    Tabulate the kernel of one cuspidal type over its finite quotient
    (depth-zero: the full finite general linear group; ramified: units
    times the pro-p coset grid), together with a properties summary
    (identity, duality, convolution).
verify
    Run the exact local integral for a pair of types, check the closed
    form and every structural diagnostic, and emit a report.
reduce
    Rerun the integral over a residue field of banal characteristic ell
    and compare with the coefficient-wise reduction of the closed form.
oracle-check
    Compare Laurent coefficients of the engine against the
    window-truncated brute-force lattice sum.

Exit codes
----------
0   all requested checks passed
1   the run completed but a verification check failed
2   configuration error (bad flags, non-regular character data, ...)
3   refusal: ell is not banal for the requested type

One exit path
-------------
Each ``cmd_*`` function only computes: it returns the names of its failed
checks, its JSON body without ``config``, and a callable that builds its
CSV rows, so a JSON run never builds them.  ``main`` is the one place that
renders the report (JSON with the ``config`` block, or CSV), prints the
``verification failed: ...`` note, writes the report and picks the exit
code.  An engine, oracle or table run whose cost, estimated before any
type is built, is above its limit is refused through ``_refuse_above``
with exit 2.

Scalar literals
---------------
``--A``, ``--A2`` and ``--twist`` accept a small expression grammar::

    literal :=  term (("+" | "-") term)*
    term    :=  factor ("*" factor)*
    factor  :=  "zeta(" N ")" ["^" [-] k]  |  a  |  a "/" b

so for example ``1``, ``-1``, ``2/3``, ``zeta(4)``, ``zeta(8)^3`` and
``zeta(4) * 1/2`` are all valid.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache
from math import prod

from .cuspchar import BesselFunction, bessel_convolution_holds
from .cyclo import _prime_powers, is_prime, parse_cyc
from .errors import NonBanal, NotIntegralAtEll, RSExactError, TooLarge
from .finitefield import AddChar, gf
from .integral import (
    DEFAULT_WINDOW,
    GL3_WINDOW,
    ORACLE_KMAX,
    RSPair,
    _j1_coset_reps,
    oracle_check,
    oracle_rows_json,
    verify_main_theorem,
)
from .lmodular import conductor, verify_corollary
from .matgroups import enumerate_group, identity, mat_inverse, order_gl
from .padic import PadicMatrix, nk_cell_count
from .simpletypes import (
    DEPTH_ZERO,
    RAMIFICATION_INDEX,
    RAMIFIED,
    SimpleTypeData,
    make_type,
)

_GRAMMAR_EPILOG = """\
scalar literals (--A, --A2, --twist):
    literal :=  term (("+" | "-") term)*
    term    :=  factor ("*" factor)*
    factor  :=  "zeta(" N ")" ["^" [-] k]  |  a  |  a "/" b
  examples: "1", "-1", "2/3", "zeta(4)", "zeta(8)^3", "zeta(4) * 1/2"
  (literals starting with "-" need the "=" form, e.g. --A2=-1)

exit codes:
  0 checks passed   1 verification failure   2 configuration error
  3 refused: ell is not banal for the requested type
"""


# -- run configuration ----------------------------------------------------


@dataclass
class RunConfig:
    """Plain-data record of one CLI invocation.

    Every field is JSON-serializable, and every report carries the config
    under "config", so RunConfig(**report["config"]) rebuilds it; identical
    configs produce byte-identical reports.
    """

    command: str
    family: str = DEPTH_ZERO
    p: int = 2
    n: int = 2
    theta: int | None = None
    sigma: int | None = None
    orientation: int = 1
    A: str | None = None
    theta2: int | None = None
    sigma2: int | None = None
    orientation2: int | None = None
    A2: str | None = None
    twist: str | None = None
    ell: int | None = None
    ideal: int = 0
    window: int | None = None
    jobs: int = 1
    gl3: bool = False
    out: str | None = None
    format: str = "json"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# the conductor of a --A, --A2 or --twist literal: the lcm of its zeta(N)
LITERAL_MODULUS_LIMIT = 10**4


def _normalize_scalar(text: str | None) -> str | None:
    """Canonicalize a scalar literal so equal values compare equal; a
    literal whose conductor, the lcm of its zeta(N), exceeds
    LITERAL_MODULUS_LIMIT is refused before it is reduced."""
    if text is None:
        return None
    value = parse_cyc(text)
    if value.modulus > LITERAL_MODULUS_LIMIT:
        raise TooLarge(
            f"the literal {text!r} has conductor {value.modulus}, "
            f"more than the limit of {LITERAL_MODULUS_LIMIT:.0e}"
        )
    return str(value)


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    values = {f.name: getattr(ns, f.name) for f in dataclasses.fields(RunConfig)}
    for name in ("A", "A2", "twist"):
        values[name] = _normalize_scalar(values[name])
    return RunConfig(**values)


def _validate(cfg: RunConfig) -> None:
    if cfg.family not in (DEPTH_ZERO, RAMIFIED):
        raise ValueError(f"unknown family {cfg.family!r}")
    if not is_prime(cfg.p):
        raise ValueError(f"residue characteristic {cfg.p} is not prime")
    if cfg.n not in (2, 3):
        raise ValueError("only n in {2, 3} is supported")
    if cfg.n == 3 and not cfg.gl3:
        raise ValueError("n = 3 requires the --gl3 flag")
    if cfg.n == 3 and cfg.family == RAMIFIED:
        raise ValueError("the ramified family supports n = 2 only")
    if cfg.window is not None and cfg.window < 0:
        raise ValueError("--window must be nonnegative")
    if cfg.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    if cfg.command == "reduce" and cfg.ell is None:
        raise ValueError("reduce needs --ell")
    if cfg.command == "oracle-check" and cfg.n != 2:
        raise ValueError("oracle-check supports n = 2 only")
    if cfg.command in ("reduce", "bessel-table"):
        # neither runs an oracle, so the oracle's flags would be ignored
        if cfg.window is not None:
            raise ValueError(f"--window applies only to runs with an oracle, not {cfg.command}")
        if cfg.jobs != 1:
            raise ValueError(f"--jobs applies only to runs with an oracle, not {cfg.command}")
    if cfg.window is not None and cfg.n != 2:
        raise ValueError("--window supports n = 2 only")
    if cfg.command in ("verify", "reduce"):
        _check_engine_size(cfg)
    if cfg.command == "reduce":
        _check_reduce_degree(cfg)
    if cfg.command == "oracle-check" or (cfg.command == "verify" and _oracle_requested(cfg)):
        _check_oracle_size(cfg)


def _refuse_above(work: str, count: int, unit: str, limit: int) -> None:
    """Refuse, as a configuration error, work estimated to need more than
    limit units: every engine, oracle and table bound is refused in this
    one shape, before any type is built."""
    if count > limit:
        raise TooLarge(
            f"{work} needs about {count:.1e} {unit}, more than the limit of {limit:.0e}"
        )


# support tests, |unimodular rows mod p^m| * (n + 4) slices * tests per slice,
# the engine and its per-cell report may make; a slice tests p - 1 unit
# classes for n = 2 and its window pairs times |(N cap K)\K/K| for n = 3;
# at depth zero, plus one decomposition per point for the whole pair; see
# _check_engine_size for where the ramified estimate over-counts
ENGINE_TEST_LIMIT = 10**6


def _check_engine_size(cfg: RunConfig) -> None:
    """Refuse a verify or reduce run whose support tests, estimated before
    any type is built, exceed ENGINE_TEST_LIMIT.

    There is one cell per unimodular bottom row mod p^m, and each cell is
    tested at the n + 4 slices k = -2..n+1 of the engine and
    cell_support_report; a slice tests p - 1 unit classes for n = 2, and
    for n = 3 each window pair (v1, v2) with v1 + v2 = k times the
    (N cap K)\\K/K cells.  At depth zero those points are decomposed once
    per pair, and each cell tests every point against that table: a miss
    is a lookup, a hit costs a product k_0 * cell and a class lookup.  So
    the estimate adds the per-pair decompositions to one test per (cell,
    point); the Bessel and Laurent work that now dominates a depth-zero run
    is not counted yet.  In the ramified family cell_support_report tests
    its four slices k = -2, -1, n, n + 1 once per J^1 class of cells,
    2(p - 1) classes against (p^2 - 1) p^2 cells, so the estimate
    over-counts them; it keeps counting them per cell, and so keeps the
    admitted sizes, until the estimate is re-derived from each family's
    costs.
    """
    p, n = cfg.p, cfg.n
    level = RAMIFICATION_INDEX[cfg.family]
    rows = p ** (level * n) - p ** ((level - 1) * n)
    slices = range(-2, n + 2)
    if n == 2:
        per_cell = len(slices) * (p - 1)
    else:
        window = range(-GL3_WINDOW, GL3_WINDOW + 1)
        pairs = sum(k - v1 in window for k in slices for v1 in window)
        per_cell = pairs * nk_cell_count(p, 1)
    tests = rows * per_cell
    if cfg.family == DEPTH_ZERO:
        tests += per_cell
    _refuse_above(f"the engine at p = {p}, n = {n}", tests, "support tests", ENGINE_TEST_LIMIT)


def _conductor(cfg: RunConfig) -> int:
    """The conductor lmodular.pair_conductor finds for the pair, read off the
    flags before any type is built."""
    literals = (cfg.A, cfg.A2, cfg.twist)
    return conductor(cfg.family, cfg.p, cfg.n,
                     *(parse_cyc(text).modulus for text in literals if text is not None))


# phi(N), the degree of the pair's cyclotomic field Q(zeta_N), that reduce
# factors mod ell and reruns the engine in
REDUCE_DEGREE_LIMIT = 600


def _check_reduce_degree(cfg: RunConfig) -> None:
    """Refuse a reduce run whose conductor N has phi(N) above
    REDUCE_DEGREE_LIMIT: reduce factors Phi_N mod ell and reruns the engine
    in a residue field of degree up to phi(N)."""
    N = _conductor(cfg)
    degree = prod(phi for _, _, phi, _ in _prime_powers(N))
    if degree > REDUCE_DEGREE_LIMIT:
        raise TooLarge(
            f"reduce at conductor {N} works in Q(zeta_{N}) of degree {degree}, "
            f"more than the limit of {REDUCE_DEGREE_LIMIT}"
        )


# pair points the brute-force oracle may visit, estimated as
# (kmax + 1) * (window + 1) * |(N cap K)\K/K^m|; the oracle walks at most
# one support shell per coefficient, (kmax + 1) * |(N cap K)\K/K^m| points,
# and the estimate stays an upper bound that does not rest on that law
ORACLE_POINT_LIMIT = 10**6


def _check_oracle_size(cfg: RunConfig) -> None:
    """Refuse an oracle run whose point count, bounded above before any type
    is built (the ORACLE_POINT_LIMIT comment), exceeds ORACLE_POINT_LIMIT."""
    window = cfg.window if cfg.window is not None else DEFAULT_WINDOW
    level = RAMIFICATION_INDEX[cfg.family]
    points = (ORACLE_KMAX + 1) * (window + 1) * nk_cell_count(cfg.p, level)
    _refuse_above(f"the oracle at window {window}", points, "pair points", ORACLE_POINT_LIMIT)


# -- type construction ----------------------------------------------------


def _make_type1(cfg: RunConfig) -> SimpleTypeData:
    A = parse_cyc(cfg.A) if cfg.A is not None else None
    return make_type(
        cfg.family,
        cfg.p,
        n=cfg.n,
        theta=cfg.theta,
        A=A,
        sigma=cfg.sigma,
        orientation=cfg.orientation,
    )


def _make_types(cfg: RunConfig):
    """Build (type1, type2, twist); type2 defaults field-wise to the
    canonical dual of type1."""
    t1 = _make_type1(cfg)
    dual = t1.dual_params()
    params = dict(dual)
    if cfg.theta2 is not None:
        params["theta"] = cfg.theta2
    if cfg.sigma2 is not None:
        params["sigma"] = cfg.sigma2
    if cfg.orientation2 is not None:
        params["orientation"] = cfg.orientation2
    if cfg.A2 is not None:
        params["A"] = parse_cyc(cfg.A2)
    family = params.pop("family")
    p = params.pop("p")
    t2 = make_type(family, p, **params)
    twist = parse_cyc(cfg.twist) if cfg.twist is not None else None
    return t1, t2, twist


# -- bessel-table ---------------------------------------------------------


# Bessel terms, |GL_n(F_q)| * q^(n(n-1)/2), a full depth-zero table may cost;
# a table is refused above it before any element is built
BESSEL_TERM_LIMIT = 10**6


def _convolution_pairs(G: list, p: int, n: int) -> list:
    """The pairs of GL_n(F_p) the convolution check covers: every pair when
    there are at most 2 500, else 200 seeded ones."""
    if len(G) ** 2 <= 2500:
        return [(g1, g2) for g1 in G for g2 in G]
    rng = random.Random(1009 * p + 17 * n)
    return [(rng.choice(G), rng.choice(G)) for _ in range(200)]


def _depth_zero_table(cfg: RunConfig, t1: SimpleTypeData):
    terms = order_gl(cfg.p, cfg.n) * cfg.p ** (cfg.n * (cfg.n - 1) // 2)
    _refuse_above(f"a GL_{cfg.n}(F_{cfg.p}) Bessel table", terms, "terms", BESSEL_TERM_LIMIT)
    psi = AddChar(gf(cfg.p), 1)
    J = BesselFunction(t1.chi, psi)
    Jdual = BesselFunction(t1.chi.dual(), psi.inverse())
    G = enumerate_group(cfg.p, cfg.n)
    rows = [{"g": [list(row) for row in g], "value": str(J.value(g))} for g in G]

    identity_ok = J.value(identity(cfg.n)) == 1
    duality_ok = all(Jdual.value(g) == J.value(mat_inverse(g, cfg.p)) for g in G)
    pairs = _convolution_pairs(G, cfg.p, cfg.n)
    convolution_ok = bessel_convolution_holds(J, pairs)
    checks = {"identity": identity_ok, "duality": duality_ok, "convolution": convolution_ok}
    return rows, checks, len(pairs)


def _ramified_table(cfg: RunConfig, t1: SimpleTypeData):
    p = cfg.p
    # one lambda value per row: r in F_p^x times the p^5 J^1/K^2 cosets
    _refuse_above(f"a ramified lambda table at p = {p}", (p - 1) * p**5, "terms",
                  BESSEL_TERM_LIMIT)
    reps = [u * r for r in range(1, p) for u in _j1_coset_reps(p)]
    classes = [t1.kernel_class(j) for j in reps]
    t2 = make_type(**t1.dual_params())
    # lambda factors through the kernel class, which a type and its dual
    # share: one value per class and type, which keeps its own text
    lam1, lam2 = cache(t1.lam_on_class), cache(t2.lam_on_class)
    rows = [
        {"g": [[int(j.entry(i, k)) for k in range(2)] for i in range(2)],
         "value": str(lam1(cls))}
        for j, cls in zip(reps, classes)
    ]

    cls_of = t1.kernel_class
    identity_ok = lam1(cls_of(PadicMatrix.identity(2))) == 1
    duality_ok = all(
        lam2(cls) == lam1(cls_of(j.inverse())) for j, cls in zip(reps, classes)
    )
    rng = random.Random(1009 * p + 3)
    pairs = [(rng.choice(reps), rng.choice(reps)) for _ in range(100)]
    conv_ok = all(
        lam1(cls_of(j1 * j2)) == lam1(cls_of(j1)) * lam1(cls_of(j2)) for j1, j2 in pairs
    )
    checks = {"identity": identity_ok, "duality": duality_ok, "convolution": conv_ok}
    return rows, checks, len(pairs)


def _table_csv_rows(rows: list, checks: dict, pairs: int):
    """The CSV of a kernel table: one-column "# name: pass" comment rows for
    the checks and the pair count, the header g11 .. gnn, value, then one
    row per element."""
    for name, ok in checks.items():
        yield (f"# {name}: {'pass' if ok else 'FAIL'}",)
    yield (f"# pairs_checked: {pairs}",)
    n = len(rows[0]["g"])
    yield [f"g{i + 1}{j + 1}" for i in range(n) for j in range(n)] + ["value"]
    for r in rows:
        yield [e for grow in r["g"] for e in grow] + [r["value"]]


def cmd_bessel_table(cfg: RunConfig):
    t1 = _make_type1(cfg)
    table = _depth_zero_table if cfg.family == DEPTH_ZERO else _ramified_table
    rows, checks, pairs = table(cfg, t1)
    failures = [name for name, ok in checks.items() if not ok]
    body = {"rows": rows, "checks": {**checks, "pairs_checked": pairs}}
    return failures, body, lambda: _table_csv_rows(rows, checks, pairs)


# -- verify ---------------------------------------------------------------


def _parallel_oracle_rows(cfg: RunConfig, pair: RSPair, I):
    """Oracle rows of the pair, with the coefficients spread over
    cfg.jobs processes when that is more than one; the pool never starts
    more processes than there are coefficients."""
    window = cfg.window if cfg.window is not None else DEFAULT_WINDOW
    if cfg.jobs == 1:
        return oracle_check(pair, ORACLE_KMAX, window, I=I)
    with ProcessPoolExecutor(max_workers=min(cfg.jobs, ORACLE_KMAX + 1)) as pool:
        return oracle_check(pair, ORACLE_KMAX, window, I=I, mapper=pool.map)


def _oracle_requested(cfg: RunConfig) -> bool:
    if cfg.n != 2:
        return False
    if cfg.window is not None:
        return True
    return cfg.p <= 3


def cmd_verify(cfg: RunConfig):
    t1, t2, twist = _make_types(cfg)
    report = verify_main_theorem(t1, t2, twist=twist)
    if report.applicable and _oracle_requested(cfg):
        report.oracle = _parallel_oracle_rows(cfg, report.pair, report.I)
    return report.failures, report.to_json(), report.csv_rows


# -- reduce ---------------------------------------------------------------


def cmd_reduce(cfg: RunConfig):
    t1, t2, twist = _make_types(cfg)
    report = verify_corollary(t1, t2, cfg.ell, twist=twist, factor_index=cfg.ideal)
    body = report.to_json()

    def csv_rows():
        yield ("key", "value")
        for k, v in body.items():
            yield (k, json.dumps(v) if isinstance(v, (dict, list)) else v)

    return ([] if report.match else ["corollary"]), body, csv_rows


# -- oracle-check ---------------------------------------------------------


def cmd_oracle_check(cfg: RunConfig):
    t1, t2, twist = _make_types(cfg)
    pair = RSPair(t1, t2, twist=twist)
    rows = oracle_rows_json(_parallel_oracle_rows(cfg, pair, None))
    all_match = all(r["match"] for r in rows)

    def csv_rows():
        yield ("k", "engine", "oracle", "match")
        for r in rows:
            yield (r["k"], r["engine"], r["oracle"], r["match"])

    return ([] if all_match else ["oracle"]), {"rows": rows, "all_match": all_match}, csv_rows


# -- entry point ----------------------------------------------------------


# each command returns (failed check names, JSON body without "config", a
# callable that builds its CSV rows); main renders, notes and exits
DISPATCH = {
    "bessel-table": cmd_bessel_table,
    "verify": cmd_verify,
    "reduce": cmd_reduce,
    "oracle-check": cmd_oracle_check,
}

SUBCOMMAND_HELP = {
    "bessel-table": "tabulate the kernel over the finite quotient",
    "verify": "run and check the exact local integral",
    "reduce": "compare the mod-ell rerun with the reduced closed form",
    "oracle-check": "compare engine coefficients with the brute-force oracle",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("type data")
    g.add_argument("--family", choices=[DEPTH_ZERO, RAMIFIED], default=DEPTH_ZERO)
    g.add_argument("--p", "--q", dest="p", type=int, default=2,
                   help="residue characteristic (alias --q)")
    g.add_argument("--n", type=int, default=2, help="group size n (2, or 3 with --gl3)")
    g.add_argument("--gl3", action="store_true",
                   help="enable the GL_3 depth-zero route (n = 3)")
    g.add_argument("--theta", type=int, default=None,
                   help="depth-zero character index for type 1")
    g.add_argument("--sigma", type=int, default=None,
                   help="ramified character index for type 1")
    g.add_argument("--orientation", type=int, choices=(1, -1), default=1,
                   help="ramified orientation for type 1")
    g.add_argument("--A", default=None,
                   help="uniformizer scalar of type 1 (scalar literal)")
    g2 = common.add_argument_group("second type (defaults to the canonical dual)")
    g2.add_argument("--theta2", type=int, default=None)
    g2.add_argument("--sigma2", type=int, default=None)
    g2.add_argument("--orientation2", type=int, choices=(1, -1), default=None)
    g2.add_argument("--A2", default=None)
    g2.add_argument("--twist", default=None,
                    help="unramified twist scalar applied to type 2")
    g3 = common.add_argument_group("run options")
    g3.add_argument("--ell", type=int, default=None,
                    help="residue characteristic for reduce")
    g3.add_argument("--ideal", type=int, default=0,
                    help="index of the prime factor above ell")
    g3.add_argument("--window", type=int, default=None,
                    help="oracle truncation window, n = 2 only (forces the oracle on); "
                         "verify and oracle-check only")
    g3.add_argument("--jobs", type=int, default=1,
                    help="parallel worker processes for oracle coefficients; "
                         "verify and oracle-check only")
    g3.add_argument("--out", default=None, help="write the report to this file")
    g3.add_argument("--format", choices=("json", "csv"), default="json")

    parser = argparse.ArgumentParser(
        prog="rsexact",
        description=(
            "Exact Rankin-Selberg integrals and mod-ell reduction for explicit "
            "cuspidal types."
        ),
        epilog=_GRAMMAR_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in SUBCOMMAND_HELP.items():
        sub.add_parser(name, parents=[common], help=help_text, epilog=_GRAMMAR_EPILOG,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = config_from_args(ns)
        _validate(cfg)
        failures, body, csv_rows = DISPATCH[cfg.command](cfg)
        if cfg.format == "csv":
            text = "\n".join(",".join(map(str, row)) for row in csv_rows())
        else:
            text = json.dumps({"config": cfg.to_dict(), **body}, indent=2)
    except NonBanal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except NotIntegralAtEll as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (RSExactError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if failures:
        print("verification failed: " + ", ".join(failures), file=sys.stderr)
    try:
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            sys.stdout.write(text + "\n")
    except OSError as exc:
        print(f"configuration error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
