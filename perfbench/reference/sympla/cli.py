"""Command-line frontend: algebra files in, deterministic JSON reports out.

File grammar (line oriented, 1-based indices or basis labels):

    dim N
    basis a b c ...
    bracket i j = k:p/q, k2:p2/q2
    omega i j = p/q
    nabla i j = k:p/q, ...
    subspace NAME = 1,0,0; 0,1,0

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 unresolved
result when --certified was requested.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import catalog as cat
from .exactla import Matrix, Q, Subspace, Vec, q
from .lagext import (
    ExtensionTriple,
    FlatLieAlgebra,
    extension_triple,
    lagrangian_cohomology,
    lagrangian_extension,
)
from .liealg import (
    Cochain,
    Connection,
    LieAlgebra,
    ValidationError,
    ascending_central_series,
    center,
    cohomology_space,
    combos,
    descending_central_series,
    derived_series,
    nilpotency_class,
    solvability_degree,
    trivial_rep,
    validate_jacobi,
)
from .oxidation import OxidationData, symplectic_oxidation
from .reduction import reduce as reduce_step
from .search import (
    irreducible_base,
    lagrangian_ideal,
    lagrangian_subalgebra,
    symplectic_rank_bounds,
)
from .symplectic import SymplecticError, SymplecticLieAlgebra, validate_symplectic

USAGE = """usage: sympla <command> [args]

commands:
  validate <src>                   check bracket axioms and the two-form
  analyze <src>                    series, cohomology, rank, Lagrangian status
  reduce <src> --ideal <spec>      symplectic reduction by an isotropic ideal
  base <src> [--strategy S]        irreducible base via reductions
  rank <src>                       symplectic rank bounds with certificates
  lagrangian <src> [--certified]   Lagrangian ideal search
  oxidize <src> --phi M [--lam V]  symplectic oxidation of the source
  extend <src> [--alpha C]         Lagrangian extension of a flat algebra
  cohomology <src> [--degree d]    cocycle/coboundary dimensions
  catalog [name]                   list entries or emit one as a file

<src> is a file path or catalog:NAME (parameters: catalog:aff?n=3).
flags: --json --ideal --strategy {central|any|greedy} --budget N --seed N
       --certified --phi --lam --alpha --degree
"""


@dataclass
class ParsedFile:
    algebra: LieAlgebra
    symplectic: SymplecticLieAlgebra | None
    flat: FlatLieAlgebra | None
    marked: dict[str, Subspace]


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _parse_rational(tok: str, line: int) -> Fraction:
    try:
        return Fraction(tok.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {tok!r}", line) from None


def parse(text: str) -> ParsedFile:
    dim: int | None = None
    labels: list[str] | None = None
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    omega_entries: dict[tuple[int, int], Fraction] = {}
    nabla_entries: dict[tuple[int, int], dict[int, Fraction]] = {}
    subspaces: dict[str, list[Vec]] = {}

    def resolve(tok: str, line: int) -> int:
        tok = tok.strip()
        if labels is not None and tok in labels:
            return labels.index(tok)
        try:
            idx = int(tok)
        except ValueError:
            raise ParseError(f"unknown basis token {tok!r}", line) from None
        if not (1 <= idx <= (dim or 0)):
            raise ParseError(f"index {idx} out of range", line)
        return idx - 1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split(None, 1)
        head = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if head == "dim":
            try:
                dim = int(rest)
            except ValueError:
                raise ParseError("dim expects an integer", lineno) from None
            if dim < 0:
                raise ParseError("dim must be nonnegative", lineno)
        elif head == "basis":
            labels = rest.split()
            if dim is None:
                raise ParseError("dim must come before basis", lineno)
            if len(labels) != dim:
                raise ParseError("basis label count differs from dim", lineno)
        elif head in ("bracket", "omega", "nabla"):
            if dim is None:
                raise ParseError("dim must come first", lineno)
            if "=" not in rest:
                raise ParseError(f"{head} line needs '='", lineno)
            lhs, rhs = rest.split("=", 1)
            toks = lhs.split()
            if len(toks) != 2:
                raise ParseError(f"{head} expects two basis tokens", lineno)
            i, j = resolve(toks[0], lineno), resolve(toks[1], lineno)
            if head == "omega":
                if not i < j:
                    raise ParseError("omega keys need i < j", lineno)
                omega_entries[(i, j)] = _parse_rational(rhs, lineno)
            else:
                if head == "bracket" and not i < j:
                    raise ParseError("bracket keys need i < j", lineno)
                entry: dict[int, Fraction] = {}
                for piece in rhs.split(","):
                    piece = piece.strip()
                    if not piece:
                        continue
                    if ":" not in piece:
                        raise ParseError("expected k:coefficient", lineno)
                    ktok, vtok = piece.split(":", 1)
                    entry[resolve(ktok, lineno)] = _parse_rational(vtok, lineno)
                if head == "bracket":
                    brackets[(i, j)] = entry
                else:
                    nabla_entries[(i, j)] = entry
        elif head == "subspace":
            if dim is None:
                raise ParseError("dim must come first", lineno)
            if "=" not in rest:
                raise ParseError("subspace line needs '='", lineno)
            name, rhs = rest.split("=", 1)
            name = name.strip()
            vecs = []
            for piece in rhs.split(";"):
                piece = piece.strip()
                if not piece:
                    continue
                coords = [_parse_rational(t, lineno) for t in piece.split(",")]
                if len(coords) != dim:
                    raise ParseError("vector length differs from dim", lineno)
                vecs.append(tuple(coords))
            subspaces[name] = vecs
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if dim is None:
        raise ParseError("missing dim line", 1)
    if labels is None:
        labels = [f"e{i+1}" for i in range(dim)]
    g = LieAlgebra.from_brackets(labels, brackets)
    report = validate_jacobi(g)
    if not report.ok:
        i, j, k, _ = report.violations[0]
        raise ValidationError(
            f"Jacobi identity fails on basis triple "
            f"({labels[i]}, {labels[j]}, {labels[k]})")
    symp = None
    if omega_entries:
        rows = [[Q(0)] * dim for _ in range(dim)]
        for (i, j), v in omega_entries.items():
            rows[i][j] = v
            rows[j][i] = -v
        symp = validate_symplectic(g, Matrix.from_rows(rows, dim))
    flat = None
    if nabla_entries:
        mats = []
        for i in range(dim):
            rows = [[Q(0)] * dim for _ in range(dim)]
            for j in range(dim):
                for k, c in nabla_entries.get((i, j), {}).items():
                    rows[k][j] = c
            mats.append(Matrix.from_rows(rows, dim))
        flat = FlatLieAlgebra(g, Connection(g, tuple(mats)))
    marked = {name: Subspace.span(dim, vecs) for name, vecs in subspaces.items()}
    return ParsedFile(g, symp, flat, marked)


def serialize(parsed: ParsedFile) -> str:
    g = parsed.algebra
    n = g.dim
    lines = [f"dim {n}", "basis " + " ".join(g.labels)]
    for i in range(n):
        for j in range(i + 1, n):
            entries = [(k, c) for k, c in enumerate(g.bracket_basis(i, j)) if c != 0]
            if entries:
                rhs = ", ".join(f"{k+1}:{c}" for k, c in entries)
                lines.append(f"bracket {i+1} {j+1} = {rhs}")
    if parsed.symplectic is not None:
        om = parsed.symplectic.omega
        for i in range(n):
            for j in range(i + 1, n):
                if om.rows[i][j] != 0:
                    lines.append(f"omega {i+1} {j+1} = {om.rows[i][j]}")
    if parsed.flat is not None:
        for i in range(n):
            mat = parsed.flat.connection.mats[i]
            for j in range(n):
                entries = [(k, mat.rows[k][j]) for k in range(n) if mat.rows[k][j] != 0]
                if entries:
                    rhs = ", ".join(f"{k+1}:{c}" for k, c in entries)
                    lines.append(f"nabla {i+1} {j+1} = {rhs}")
    for name in sorted(parsed.marked):
        sub = parsed.marked[name]
        vecs = "; ".join(",".join(str(x) for x in row) for row in sub.rows)
        lines.append(f"subspace {name} = {vecs}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# source loading and output helpers


def _load(src: str) -> ParsedFile:
    if src.startswith("catalog:"):
        spec = src[len("catalog:"):]
        params: dict = {}
        if "?" in spec:
            spec, query = spec.split("?", 1)
            for piece in query.split("&"):
                if not piece:
                    continue
                key, _, val = piece.partition("=")
                try:
                    params[key] = int(val)
                except ValueError:
                    params[key] = val
        entry = cat.build(spec, **params)
        return ParsedFile(entry.algebra, entry.symplectic, entry.flat, dict(entry.marked))
    with open(src, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Subspace):
        return [[str(c) for c in row] for row in x.rows]
    if isinstance(x, Matrix):
        return [[str(c) for c in row] for row in x.rows]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(payload: dict) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":")) + "\n"


def _resolve_ideal(parsed: ParsedFile, spec: str) -> Subspace:
    g = parsed.algebra
    if spec in parsed.marked:
        return parsed.marked[spec]
    toks = [t for t in spec.replace(",", " ").split() if t]
    if toks and all(t in g.labels for t in toks):
        return Subspace.span(g.dim, [g.basis_vector(g.labels.index(t)) for t in toks])
    if toks and all(t.lstrip("-").isdigit() for t in toks):
        return Subspace.span(
            g.dim, [g.basis_vector(int(t) - 1) for t in toks])
    vecs = []
    for piece in spec.split(";"):
        piece = piece.strip()
        if piece:
            vecs.append(tuple(Fraction(x) for x in piece.split(",")))
    if vecs:
        return Subspace.span(g.dim, vecs)
    raise ValidationError(f"cannot resolve ideal specification {spec!r}")


def _parse_matrix_flag(text: str, n: int) -> Matrix:
    rows = []
    for piece in text.split(";"):
        piece = piece.strip()
        if piece:
            rows.append([Fraction(x) for x in piece.split(",")])
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValidationError("matrix flag must be n rows of n entries")
    return Matrix.from_rows(rows, n)


def _parse_vector_flag(text: str, n: int) -> Vec:
    coords = [Fraction(x) for x in text.split(",")]
    if len(coords) != n:
        raise ValidationError("vector flag must have n entries")
    return tuple(coords)


def _parse_cochain_flag(text: str, n: int) -> Cochain:
    """Format: 'i j: c1,...,cn; k l: ...' giving alpha(e_i, e_j) in dual coords."""
    values: dict[tuple[int, ...], Vec] = {}
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        head, _, rhs = piece.partition(":")
        toks = head.split()
        if len(toks) != 2:
            raise ValidationError("cochain flag expects 'i j: coords'")
        i, j = int(toks[0]) - 1, int(toks[1]) - 1
        values[(i, j)] = tuple(Fraction(x) for x in rhs.split(","))
    return Cochain.from_values(2, n, n, values)


# ---------------------------------------------------------------------------
# subcommands


def _series_payload(g: LieAlgebra) -> dict:
    desc = descending_central_series(g)
    asc = ascending_central_series(g)
    der = derived_series(g)
    return {
        "series_descending": list(desc.dims),
        "series_ascending": list(asc.dims),
        "series_derived": list(der.dims),
        "nilpotency_class": nilpotency_class(g),
        "solvability_degree": solvability_degree(g),
        "center_dim": center(g).dim,
    }


def _cmd_validate(parsed: ParsedFile, opts: dict) -> tuple[int, dict]:
    payload = {
        "dim": parsed.algebra.dim,
        "jacobi": "ok",
        "symplectic": parsed.symplectic is not None,
        "flat_connection": parsed.flat is not None,
    }
    return 0, payload


def _cmd_analyze(parsed: ParsedFile, opts: dict) -> tuple[int, dict]:
    g = parsed.algebra
    payload: dict = {"dim": g.dim, "basis": list(g.labels)}
    payload.update(_series_payload(g))
    if g.dim:
        coh = cohomology_space(trivial_rep(g), 2)
        payload["z2_dim"] = coh.z_dim
        payload["b2_dim"] = coh.b_dim
        payload["lambda2_dim"] = len(combos(g.dim, 2))
    if parsed.symplectic is not None:
        bounds = symplectic_rank_bounds(parsed.symplectic,
                                        budget=opts["budget"], seed=opts["seed"])
        payload["rank"] = {"lower": bounds.lower, "upper": bounds.upper,
                           "exact": bounds.exact,
                           "certificates": list(bounds.certificates)}
        res = lagrangian_ideal(parsed.symplectic, budget=opts["budget"],
                               seed=opts["seed"])
        payload["lagrangian_ideal"] = {"status": res.status,
                                       "certificate": res.certificate}
    return 0, payload


def _cmd_reduce(parsed: ParsedFile, opts: dict) -> tuple[int, dict]:
    if parsed.symplectic is None:
        raise ValidationError("reduce requires a symplectic structure")
    if not opts.get("ideal"):
        raise ValidationError("reduce requires --ideal")
    j = _resolve_ideal(parsed, opts["ideal"])
    step = reduce_step(parsed.symplectic, j)
    red = step.reduced
    payload = {
        "kind": step.kind,
        "ideal": j,
        "reduced_dim": red.dim,
        "reduced_abelian": nilpotency_class(red.algebra) in (0, 1),
        "reduced_file": serialize(ParsedFile(red.algebra, red, None, {})),
    }
    payload.update({f"reduced_{k}": v for k, v in _series_payload(red.algebra).items()})
    return 0, payload


def _cmd_base(parsed: ParsedFile, opts: dict) -> tuple[int, dict]:
    if parsed.symplectic is None:
        raise ValidationError("base requires a symplectic structure")
    strategy = {"central": "central-first", "any": "any-isotropic",
                "greedy": "greedy-max"}.get(opts["strategy"], opts["strategy"])
    result = irreducible_base(parsed.symplectic, strategy,
                              budget=opts["budget"], seed=opts["seed"])
    payload = {
        "strategy": strategy,
        "status": result.status,
        "base_dim": result.base.dim,
        "steps": [s.ideal.dim for s in result.steps],
        "fingerprint": _fingerprint_payload(result.fingerprint),
    }
    code = 3 if (result.status == "unresolved" and opts["certified"]) else 0
    return code, payload


def _fingerprint_payload(fp: tuple) -> dict:
    dim, desc, der, asc, z2, b2, rank = fp
    return {"dim": dim, "series_descending": list(desc), "series_derived": list(der),
            "series_ascending": list(asc), "z2_dim": z2, "b2_dim": b2,
            "rank": list(rank) if rank else None}


def _cmd_rank(parsed: ParsedFile, opts: dict) -> tuple[int, dict]:
    if parsed.symplectic is None:
        raise ValidationError("rank requires a symplectic structure")
    bounds = symplectic_rank_bounds(parsed.symplectic, budget=opts["budget"],
                                    seed=opts["seed"])
    payload = {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "exact": bounds.exact,
        "certificates": list(bounds.certificates),
        "witness": bounds.lower_witness if bounds.lower_witness else None,
    }
    return 0, payload


def _cmd_lagrangian(parsed: ParsedFile, opts: dict) -> tuple[int, dict]:
    if parsed.symplectic is None:
        raise ValidationError("lagrangian requires a symplectic structure")
    res = lagrangian_ideal(parsed.symplectic, budget=opts["budget"], seed=opts["seed"])
    sub = lagrangian_subalgebra(parsed.symplectic, budget=opts["budget"],
                                seed=opts["seed"])
    payload = {
        "status": res.status,
        "certificate": res.certificate,
        "ideal": res.subspace,
        "subalgebra": {"status": sub.status, "subspace": sub.subspace,
                       "path": sub.path},
    }
    code = 3 if (res.status == "unresolved" and opts["certified"]) else 0
    return code, payload


def _cmd_oxidize(parsed: ParsedFile, opts: dict) -> tuple[int, dict]:
    if parsed.symplectic is None:
        raise ValidationError("oxidize requires a symplectic structure")
    if not opts.get("phi"):
        raise ValidationError("oxidize requires --phi")
    g = parsed.algebra
    phi = _parse_matrix_flag(opts["phi"], g.dim)
    lam_vec = _parse_vector_flag(opts["lam"], g.dim) if opts.get("lam") \
        else tuple(Q(0) for _ in range(g.dim))
    from .liealg import matrix_as_two_form, two_form_derive

    alpha = two_form_derive(g, matrix_as_two_form(parsed.symplectic.omega), phi)
    lam = Cochain.from_values(1, g.dim, 1, {(i,): (lam_vec[i],) for i in range(g.dim)}) \
        if g.dim else Cochain.zero(1, 0, 1)
    data = OxidationData(g, phi, alpha, lam, parsed.symplectic.omega)
    ox = symplectic_oxidation(data)
    payload = {
        "dim": ox.dim,
        "file": serialize(ParsedFile(ox.algebra, ox, None, {})),
    }
    payload.update({f"oxidized_{k}": v for k, v in _series_payload(ox.algebra).items()})
    return 0, payload


def _cmd_extend(parsed: ParsedFile, opts: dict) -> tuple[int, dict]:
    if parsed.flat is None:
        raise ValidationError("extend requires a flat connection (nabla lines)")
    n = parsed.algebra.dim
    alpha = _parse_cochain_flag(opts["alpha"], n) if opts.get("alpha") \
        else Cochain.zero(2, n, n)
    polarized = lagrangian_extension(ExtensionTriple(parsed.flat, alpha))
    s = polarized.s
    payload = {
        "dim": s.dim,
        "file": serialize(ParsedFile(s.algebra, s, None, {
            "ideal": polarized.ideal, "complement": polarized.complement})),
    }
    payload.update({f"extension_{k}": v for k, v in _series_payload(s.algebra).items()})
    return 0, payload


def _cmd_cohomology(parsed: ParsedFile, opts: dict) -> tuple[int, dict]:
    g = parsed.algebra
    degree = opts.get("degree") or 2
    coh = cohomology_space(trivial_rep(g), degree)
    payload = {
        "degree": degree,
        "z_dim": coh.z_dim,
        "b_dim": coh.b_dim,
        "h_dim": coh.h_dim,
    }
    if parsed.flat is not None:
        lag = lagrangian_cohomology(parsed.flat)
        payload["lagrangian_extension_cohomology"] = {
            "z2_dim": lag.z2_lagrangian.dim,
            "b2_dim": lag.b2_lagrangian.dim,
            "h2_dim": lag.h2_dim,
            "kappa_dim": lag.kappa_dim,
            "z2_rho_dim": lag.z2_rho_dim,
            "b2_rho_dim": lag.b2_rho_dim,
        }
    return 0, payload


def _cmd_catalog(args: list[str], opts: dict) -> tuple[int, dict]:
    if not args:
        return 0, {"entries": list(cat.names())}
    entry = cat.build(args[0], **opts.get("params", {}))
    parsed = ParsedFile(entry.algebra, entry.symplectic, entry.flat, dict(entry.marked))
    return 0, {
        "name": entry.name,
        "expected": entry.expected,
        "file": serialize(parsed),
    }


def run(argv: list[str]) -> tuple[int, str]:
    """Execute a command line; returns (exit status, stdout text)."""
    if not argv or argv[0] in ("-h", "--help", "help"):
        return (0 if argv else 1), USAGE
    command, *rest = argv
    opts = {"budget": 2000, "seed": 0, "strategy": "central", "certified": False}
    args: list[str] = []
    i = 0
    while i < len(rest):
        tok = rest[i]
        if tok == "--json":
            pass
        elif tok == "--certified":
            opts["certified"] = True
        elif tok in ("--ideal", "--strategy", "--phi", "--lam", "--alpha"):
            if i + 1 >= len(rest):
                return 1, f"missing value for {tok}\n"
            opts[tok[2:]] = rest[i + 1]
            i += 1
        elif tok in ("--budget", "--seed", "--degree"):
            if i + 1 >= len(rest):
                return 1, f"missing value for {tok}\n"
            try:
                opts[tok[2:]] = int(rest[i + 1])
            except ValueError:
                return 1, f"{tok} expects an integer\n"
            i += 1
        elif tok.startswith("--"):
            return 1, USAGE
        else:
            args.append(tok)
        i += 1
    handlers = {
        "validate": _cmd_validate,
        "analyze": _cmd_analyze,
        "reduce": _cmd_reduce,
        "base": _cmd_base,
        "rank": _cmd_rank,
        "lagrangian": _cmd_lagrangian,
        "oxidize": _cmd_oxidize,
        "extend": _cmd_extend,
        "cohomology": _cmd_cohomology,
    }
    try:
        if command == "catalog":
            code, payload = _cmd_catalog(args, opts)
            return code, _emit(payload)
        if command not in handlers:
            return 1, USAGE
        if not args:
            return 1, f"{command} requires a source argument\n"
        parsed = _load(args[0])
        code, payload = handlers[command](parsed, opts)
        return code, _emit(payload)
    except (ParseError,) as exc:
        return 2, _emit({"error": "parse", "message": str(exc)})
    except (ValidationError, SymplecticError) as exc:
        return 2, _emit({"error": "validation", "message": str(exc)})
    except FileNotFoundError as exc:
        return 1, _emit({"error": "io", "message": str(exc)})


def main() -> None:
    code, text = run(sys.argv[1:])
    sys.stdout.write(text)
    sys.exit(code)
