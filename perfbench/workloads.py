"""Workload definitions: the command list of one pass, drawn from a seed.

A workload is a fixed list of CLI commands.  The seed only chooses input
parameters (catalog parameters, or a change of basis for ``dense``); seed 0
keeps every catalog default.  Inputs that the ``catalog:`` syntax cannot
express are written as ``.alg`` files into a work directory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ENTRIES = ("fdim_metab", "cs6", "irr6", "filiform4", "g8", "g10", "aff?n=2",
           "tn_cotangent?n=3", "gklambda")
DENSE_ENTRIES = ("fdim_metab", "cs6", "irr6", "filiform4", "g8", "gklambda", "aff?n=2")
WORKLOADS = ("cochain", "search", "dense")

# cs6 accepts any nonzero rationals; gklambda (k=1, two blocks) any two
# nonzero integer characters that are distinct up to sign and span Q^2.
CS6_VALUES = ("1", "2", "3", "-1", "-2", "1/2", "3/2", "-1/3")
CHAR_RANGE = range(-2, 3)


@dataclass(frozen=True)
class Command:
    label: str             # stable name, used for golden outputs
    argv: tuple[str, ...]  # passed to sympla.cli.run
    entry: str             # catalog name without parameters
    kind: str              # cohomology | rank | lagrangian | base | analyze
    params: tuple = ()     # catalog parameters of the entry, as (key, value) pairs


@dataclass
class Inputs:
    passes: list[list[Command]]                  # the command list of each pass
    params: dict = field(default_factory=dict)   # drawn parameters, for the report


def base_name(spec: str) -> str:
    return spec.split("?", 1)[0]


def catalog_params(spec: str) -> dict:
    """Parameters of a ``name?k=v&...`` spec, typed as ``cli._load`` types them."""
    params: dict = {}
    if "?" in spec:
        for piece in spec.split("?", 1)[1].split("&"):
            key, _, val = piece.partition("=")
            params[key] = int(val)
    return params


def draw_cs6(rng: random.Random, seed: int) -> dict:
    if seed == 0:
        return {}
    return {"mu1": rng.choice(CS6_VALUES), "mu2": rng.choice(CS6_VALUES)}


def draw_characters(rng: random.Random, seed: int) -> tuple:
    if seed == 0:
        return ((1, 0), (0, 1))
    while True:
        a = (rng.choice(CHAR_RANGE), rng.choice(CHAR_RANGE))
        b = (rng.choice(CHAR_RANGE), rng.choice(CHAR_RANGE))
        if a[0] * b[1] - a[1] * b[0] != 0:  # independent: nonzero, distinct up to sign
            return (a, b)


def make_inputs(workload: str, seed: int, workdir: Path, passes: int) -> Inputs:
    """All inputs of a run; writes the files they need into workdir.

    ``cochain`` and ``search`` repeat one command list; ``dense`` draws a fresh
    change of basis for every pass.
    """
    from sympla import catalog, cli

    rng = random.Random(seed)
    if workload in ("cochain", "search"):
        cs6 = draw_cs6(rng, seed)
        chars = draw_characters(rng, seed)
        gk = catalog.build("gklambda", characters=chars)
        gk_file = workdir / "gklambda.alg"
        gk_file.write_text(cli.serialize(
            cli.ParsedFile(gk.algebra, gk.symplectic, gk.flat, dict(gk.marked))))
        commands = []
        for spec in ENTRIES:
            name = base_name(spec)
            params = tuple(catalog_params(spec).items())
            if name == "gklambda":
                src, params = str(gk_file), (("characters", chars),)
            elif name == "cs6" and cs6:
                src, params = "catalog:cs6?" + "&".join(f"{k}={v}" for k, v in cs6.items()), \
                    tuple(cs6.items())
            else:
                src = "catalog:" + spec
            if workload == "cochain":
                for degree in ("1", "2"):
                    commands.append(Command(f"cohomology {spec} --degree {degree}",
                                            ("cohomology", src, "--degree", degree),
                                            name, "cohomology", params))
            else:
                for kind in ("rank", "lagrangian", "base"):
                    commands.append(Command(f"{kind} {spec}", (kind, src), name, kind, params))
        return Inputs([commands] * passes, {"cs6": cs6, "gklambda": chars})
    if workload == "dense":
        entries = {spec: catalog.build(base_name(spec), **catalog_params(spec))
                   for spec in DENSE_ENTRIES}
        all_passes, nonzeros = [], []
        for k in range(passes):
            commands, nnz = [], {}
            for spec, entry in entries.items():
                name = base_name(spec)
                text, nnz[name] = dense_text(entry.algebra, entry.symplectic.omega, rng)
                path = workdir / f"{name}-{k}.alg"
                path.write_text(text)
                commands.append(Command(f"analyze dense:{spec}", ("analyze", str(path)),
                                        name, "analyze", tuple(catalog_params(spec).items())))
            all_passes.append(commands)
            nonzeros.append(nnz)
        return Inputs(all_passes, {"bracket_nonzeros": nonzeros})
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# dense: an integer change of basis with determinant +-1


def random_unimodular(n: int, rng: random.Random) -> list[list[int]]:
    """P = Pi L U: unit triangular L, U with off-diagonal entries in {-1,0,1},
    then a row permutation Pi."""
    low = [[1 if i == j else (rng.choice((-1, 0, 1)) if j < i else 0)
            for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (rng.choice((-1, 0, 1)) if j > i else 0)
           for j in range(n)] for i in range(n)]
    lu = [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return [lu[perm[i]] for i in range(n)]


def inverse(p: list[list[int]]) -> list[list[Fraction]]:
    n = len(p)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(p)]
    for c in range(n):
        piv = next(r for r in range(c, n) if work[r][c] != 0)
        work[c], work[piv] = work[piv], work[c]
        inv = 1 / work[c][c]
        work[c] = [x * inv for x in work[c]]
        for r in range(n):
            if r != c and work[r][c] != 0:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return [row[n:] for row in work]


def dense_text(g, omega, rng: random.Random) -> tuple[str, int]:
    """The algebra in the basis f_i = sum_a P[i][a] e_a, as ``.alg`` text.

    Returns the text and the number of nonzero structure constants.
    """
    n = g.dim
    p = random_unimodular(n, rng)
    pinv = inverse(p)
    table = {(a, b): g.bracket_basis(a, b) for a in range(n) for b in range(a + 1, n)}
    lines = [f"dim {n}", "basis " + " ".join(f"f{i + 1}" for i in range(n))]
    nnz = 0
    for i in range(n):
        for j in range(i + 1, n):
            v = [Fraction(0)] * n
            for (a, b), c in table.items():
                coeff = p[i][a] * p[j][b] - p[i][b] * p[j][a]
                if coeff:
                    for t in range(n):
                        if c[t]:
                            v[t] += coeff * c[t]
            coords = [sum((v[t] * pinv[t][k] for t in range(n)), Fraction(0))
                      for k in range(n)]
            terms = [f"{k + 1}:{x}" for k, x in enumerate(coords) if x != 0]
            nnz += len(terms)
            if terms:
                lines.append(f"bracket {i + 1} {j + 1} = " + ", ".join(terms))
    om = omega.rows
    for i in range(n):
        for j in range(i + 1, n):
            w = sum((p[i][a] * om[a][b] * p[j][b] for a in range(n) for b in range(n)),
                    Fraction(0))
            if w != 0:
                lines.append(f"omega {i + 1} {j + 1} = {w}")
    return "\n".join(lines) + "\n", nnz
