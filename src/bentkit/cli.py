"""Command-line front end.

Subcommands: analyze, wht, anf, dual, verify, build <construction>.
Reports are JSON on stdout; truth tables travel as files in the
canonical format.  Exit codes: 0 ok, 2 malformed or missing input file
(truth table or parameter file), 3 violated construction premise or bad
parameter, 4 oracle size cap exceeded, 1 anything else (including
oracle divergence, a build output that breaks its construction's
promise, an analyze profile that breaks the bounds it reports, an
internal RuntimeError, an unwritable output file and a report that
cannot be written to stdout).
An output file is written whole or not at all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from . import analysis, constructions, oracle, rand
from .core import (
    BooleanFunction,
    _integer,
    mobius,
    parse_truth_table,
    serialize_truth_table,
    walsh_transform,
)
from .errors import CapError, PremiseError, TruthTableFormatError
from .galois import GaloisField


def _read(path: str) -> str:
    """An input file's text: its exact bytes decoded as UTF-8, with no
    newline translation and no locale encoding."""
    try:
        return Path(path).read_bytes().decode()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        raise TruthTableFormatError(f"cannot read {path}: {exc}") from exc


def _load(path: str) -> BooleanFunction:
    return parse_truth_table(_read(path))


def _write(f: BooleanFunction, path: str | None) -> None:
    text = serialize_truth_table(f)
    if path is None:
        print(text, end="")  # print, as the reports: a no-op with no stdout
        return
    tmp = None
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            raise OSError("not a regular file")
        # a temporary file beside the target (through a symlink, as a plain
        # write would go), renamed over it once complete
        target = Path(os.path.realpath(path))
        with open(target.with_name(f".{target.name}.{os.getpid()}.tmp"), "x") as fh:
            tmp = fh.name
            fh.write(text)
        os.replace(tmp, target)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def cmd_analyze(args) -> int:
    _emit(analysis.analyze(_load(args.path)).as_dict())
    return 0


def cmd_wht(args) -> int:
    f = _load(args.path)
    values = walsh_transform(f)._raw
    # the bytes of _emit({"n": ..., "values": [...]}), 2^16 values at a time
    # so that no list or string of the whole spectrum is built
    step = 1 << 16
    for lo in range(0, values.size, step):
        head = f'{{\n  "n": {f.n},\n  "values": [\n    ' if lo == 0 else ",\n    "
        items = ",\n    ".join(map(str, values[lo : lo + step].tolist()))
        print(head, items, sep="", end="")
    print("\n  ]\n}")
    return 0


def cmd_anf(args) -> int:
    f = _load(args.path)
    p = mobius(f)
    terms = ["*".join(f"x{j}" for j in mono) if mono else "1" for mono in p.monomials()]
    _emit(
        {
            "n": f.n,
            "degree": p.degree,
            "degree_per_variable": p.degree_per_variable(),
            "monomials": terms,
        }
    )
    return 0


def cmd_dual(args) -> int:
    _write(analysis.dual(_load(args.path)), args.output)
    return 0


def cmd_verify(args) -> int:
    report = oracle.VERIFIERS[args.property](_load(args.path))
    _emit(report.as_dict())
    return 0 if report.agreed else 1


# -- build ---------------------------------------------------------------


def _param_function(value, rng, n_random: int, label: str) -> BooleanFunction:
    """A function parameter: a truth-table path or the string "random"."""
    if value == "random":
        return rand.random_function(n_random, rng)
    if isinstance(value, str):
        return _load(value)
    raise PremiseError(f"parameter {label} must be a file path or \"random\"")


def _param_map(p: dict, label: str, key: str, rng, fix_zero: bool = False):
    value = p.get(label, "random")
    if value != "random":
        if key in p:
            raise PremiseError(f"parameter {key!r} is read only to draw {label} at random")
        return constructions.PermutationMap(value)
    if key not in p:
        raise PremiseError(f"cannot draw {label} at random: set \"{key}\"")
    k = _integer(p[key], key, 1)
    constructions.check_total(2 * k)  # before drawing 2^k images
    return rand.random_permutation(k, rng, fix_zero=fix_zero)


def _params(path: str | None) -> dict:
    """The --param-file object; a file that cannot be read as a JSON
    object is malformed input, like an unreadable truth table."""
    if path is None:
        return {}
    text = _read(path)
    try:  # RecursionError: nesting deeper than the decoder's recursion limit
        params = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise TruthTableFormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(params, dict):
        raise TruthTableFormatError(f"{path} must hold a JSON object")
    return params


def _reject_booleans(p: dict, name: str) -> None:
    """No parameter is a boolean, but Python reads JSON true and false as
    the integers 1 and 0, so a mistyped count or bit would be accepted."""
    stack = list(p.items())
    while stack:  # a loop, not recursion: the decoder accepts deep nesting
        key, value = stack.pop()
        if isinstance(value, bool):
            raise PremiseError(f"malformed parameters for {name}: {key!r} holds a boolean")
        if isinstance(value, list):
            stack.extend((key, v) for v in value)
        elif isinstance(value, dict):
            stack.extend((key, v) for v in value.values())


def _element_pair(value, label: str) -> tuple[int, int]:
    """A pair of field elements; strings may use 0x.. hex notation."""
    try:
        a, b = value
        return (int(a, 0) if isinstance(a, str) else _integer(a, label),
                int(b, 0) if isinstance(b, str) else _integer(b, label))
    except (TypeError, ValueError) as exc:
        raise PremiseError(f"parameter {label} must be a pair of elements") from exc


def _subspaces(p: dict, phi, key_e1: str, key_e2: str):
    """E1, E2 of a class-D function; E1 "auto" (the default) is phi(E2)^perp."""
    e2 = constructions.LinearSubspace(phi.k, p.get(key_e2, []))
    e1 = p.get(key_e1, "auto")
    if e1 == "auto":
        return constructions.class_d_e1(phi, e2), e2
    return constructions.LinearSubspace(phi.k, e1), e2


def _bent(a, h: BooleanFunction, promises=(("bent", "==", True),)):
    """The output with its bent claims, promised bent unless the
    construction checks no premise that makes it so."""
    return h, analysis.certify(a.construction, h, promises), None


def _resilient(a, h: BooleanFunction, cert=None, promises=()):
    """The output with its resiliency claims and certificate, if any,
    whose promises replace the given ones."""
    promises = promises if cert is None else cert.promises
    return h, analysis.certify(a.construction, h, promises, resilient=True), cert


# Each build function takes the arguments, the parameter object and the
# seeded generator.  It returns the output, the claims verified on it and
# a certificate or None, and raises RuntimeError if the output breaks a
# promise of its construction's theorem.  Truth tables are loaded inside
# the call that consumes them, so none is held while the claims are
# computed.


def _direct_sum(a, p, rng):
    f, g = _load(a.f), _load(a.g)
    formula = constructions.direct_sum_nonlinearity(f, g)
    h, claims, _ = _resilient(a, constructions.direct_sum(f, g),
                              promises=[("nonlinearity", "==", formula)])
    return h, {**claims, "nonlinearity_formula": formula}, None


def _indirect_sum(a, p, rng):
    tables = map(_load, (a.f1, a.f2, a.g1, a.g2))
    return _bent(a, constructions.indirect_sum(*tables), promises=())  # no premise checked


def _restricted_indirect_sum(a, p, rng):
    return _bent(a, constructions.restricted_indirect_sum(
        _load(a.f), a.mu, _load(a.g), a.rho, a.variant
    ))


def _mm(a, p, rng):
    phi = _param_map(p, "phi", "k", rng)
    u = _param_function(p.get("u", "random"), rng, phi.k, "u")
    return _bent(a, constructions.mm_function(phi, u, require_bent=True))


def _psap(a, p, rng):
    field = GaloisField(p["m"])
    theta = p.get("theta", "random")
    if theta == "random":
        theta = rand.random_balanced_field_table(field.m, rng)
    return _bent(a, constructions.psap_bent(field, theta))


def _class_d(a, p, rng):
    phi = _param_map(p, "phi", "k", rng, fix_zero=True)
    e1, e2 = _subspaces(p, phi, "e1", "e2")
    return _bent(a, constructions.class_d_bent(phi, e1, e2))


def _mm_restricted_sum(a, p, rng):
    phi = _param_map(p, "phi", "k_f", rng)
    psi = _param_map(p, "psi", "k_g", rng)
    u = _param_function(p.get("u", "random"), rng, phi.k, "u")
    v = _param_function(p.get("v", "random"), rng, psi.k, "v")
    return _bent(a, constructions.mm_restricted_sum(phi, psi, a.mu, a.rho, u, v))


def _psap_restricted_sum(a, p, rng):
    m_f, m_g = (_integer(p[key], "extension degree") for key in ("m_f", "m_g"))
    constructions.check_total(2 * m_f + 2 * m_g - 2)  # before either field is built
    # field, bit table, hyperplane form and coset shift of each side
    sides = [
        (GaloisField(p["m_" + s]), p[table], _element_pair(p["form_" + s], "form_" + s),
         _element_pair(p["shift_" + s], "shift_" + s))
        for s, table in (("f", "theta"), ("g", "vartheta"))
    ]
    return _bent(a, constructions.psap_restricted_sum(*sides[0], *sides[1]))


def _class_d_restricted_sum(a, p, rng):
    phi = _param_map(p, "phi", "k_f", rng, fix_zero=True)
    psi = _param_map(p, "psi", "k_g", rng, fix_zero=True)
    e1, e2 = _subspaces(p, phi, "e1", "e2")
    xi1, xi2 = _subspaces(p, psi, "xi1", "xi2")
    h = constructions.class_d_restricted_sum(phi, e1, e2, psi, xi1, xi2, a.mu, a.rho)
    return _bent(a, h)


def _rothaus(a, p, rng):
    return _bent(a, constructions.rothaus(*map(_load, (a.f1, a.f2, a.f3))))


def _rothaus_restricted_sum(a, p, rng):
    tables = map(_load, (a.f1, a.f2, a.f3, a.g1, a.g2, a.g3))
    return _bent(a, constructions.rothaus_restricted_sum(*tables))


def _generalized_indirect_sum(a, p, rng):
    tables = map(_load, (a.f1, a.f2, a.f3, a.g1, a.g2, a.g3))
    h = constructions.generalized_indirect_sum(*tables, mode=a.mode, t=a.t, k=a.k)
    if a.mode == "bent":
        return _bent(a, h)
    if a.mode == "resilient":
        return _resilient(a, h, promises=[("resiliency", ">=", a.t + a.k + 1)])
    return _resilient(a, h)  # no premise checked, so nothing promised


def _resilient_indirect_sum(a, p, rng):
    f1, f2, f3, g1, g2, g3 = map(_load, (a.f1, a.f2, a.f3, a.g1, a.g2, a.g3))
    constructions.check_total(f1.n + g1.n)  # before the triple's spectra
    triple = constructions.BentTriple(f1, f2, f3)
    return _resilient(a, *constructions.resilient_indirect_sum(triple, g1, g2, g3, a.k))


def _resilient_indirect_sum_pair(a, p, rng):
    f1, f2, f3, fp, fq = map(_load, (a.f1, a.f2, a.f3, a.p, a.q))
    constructions.check_total(f1.n + fp.n)  # before the triple's spectra
    triple = constructions.BentTriple(f1, f2, f3)
    return _resilient(a, *constructions.resilient_indirect_sum_from_pair(
        triple, fp, fq, a.i, a.k
    ))


# name: (build function, truth-table flags, --param-file keys, other options),
# each column as README's table row lists it; "!" marks a required entry
_F123_G123 = "f1! f2! f3! g1! g2! g3!"
_BUILDS = {
    "direct-sum": (_direct_sum, "f! g!", "", ""),
    "indirect-sum": (_indirect_sum, "f1! f2! g1! g2!", "", ""),
    "restricted-indirect-sum": (_restricted_indirect_sum, "f! g!", "", "mu rho variant"),
    "mm": (_mm, "", "phi k u", "seed param-file"),
    "psap": (_psap, "", "m! theta", "seed param-file"),
    "class-d": (_class_d, "", "phi k e2 e1", "seed param-file"),
    "mm-restricted-sum": (_mm_restricted_sum, "", "phi k_f psi k_g u v",
                          "mu rho seed param-file"),
    "psap-restricted-sum": (_psap_restricted_sum, "", "m_f! theta! form_f! shift_f! "
                            "m_g! vartheta! form_g! shift_g!", "param-file"),
    "class-d-restricted-sum": (_class_d_restricted_sum, "",
                               "phi k_f psi k_g e2 e1 xi2 xi1", "mu rho seed param-file"),
    "rothaus": (_rothaus, "f1! f2! f3!", "", ""),
    "rothaus-restricted-sum": (_rothaus_restricted_sum, _F123_G123, "", ""),
    "generalized-indirect-sum": (_generalized_indirect_sum, _F123_G123, "", "mode t k"),
    "resilient-indirect-sum": (_resilient_indirect_sum, _F123_G123, "", "k!"),
    "resilient-indirect-sum-pair": (
        _resilient_indirect_sum_pair, "f1! f2! f3! p! q!", "", "k! i"),
}

# every build option but -o, argparse's keywords for those not paths, defaults
_OPTIONS = dict.fromkeys(w.rstrip("!") for _, flags, _, options in _BUILDS.values()
                         for w in f"{flags} {options}".split())
_ARGUMENTS = {**dict.fromkeys(["mu", "rho", "t", "k", "i", "seed"], {"type": int}),
              "variant": {"choices": ["00", "01", "10", "11"]},
              "mode": {"choices": ["resilient", "bent"]}}
_DEFAULTS = {"seed": 0, "mu": 1, "rho": 1, "i": 1, "variant": "00"}


def _reads(column: str, missing=PremiseError) -> dict:
    """A _BUILDS column as {entry: the error its absence raises, or None}."""
    return {w.rstrip("!"): missing if w.endswith("!") else None for w in column.split()}


def _check(name: str, reads: dict, given, spell: str) -> None:
    """Reject an entry of `given` that is not read, then a required one it lacks."""
    for entry in [*given, *reads]:
        if entry not in reads:
            raise PremiseError(f"{name} does not read {spell.format(entry)}")
        if reads[entry] and entry not in given:
            raise reads[entry](f"missing {spell.format(entry)} for {name}")


def cmd_build(args) -> int:
    name = args.construction
    build, flags, keys, options = _BUILDS[name]
    given = [o for o in _OPTIONS if getattr(args, o.replace("-", "_")) is not None]
    _check(name, _reads(flags, TruthTableFormatError) | _reads(options), given, "--{}")
    p = _params(args.param_file)
    _check(name, _reads(keys), p, "parameter {!r}")
    _reject_booleans(p, name)
    for key in ("phi", "psi", "theta", "vartheta", "e1", "e2", "xi1", "xi2"):
        if not isinstance(p.get(key, ""), (list, str)):  # a list or a word
            raise PremiseError(f"malformed parameters for {name}: {key!r} is not a list")
    vars(args).update({o: v for o, v in _DEFAULTS.items() if getattr(args, o) is None})
    # TypeError: a parameter value of the wrong JSON type; OverflowError: a
    # number such as 1e400, which JSON reads as infinity, used as an integer
    try:
        h, claims, cert = build(args, p, rand.XorShift64Star(args.seed))
    except (TypeError, OverflowError) as exc:
        raise PremiseError(f"malformed parameters for {name}: {exc}") from exc
    _write(h, args.output)
    if args.output is None:  # stdout holds the table alone
        return 0
    out = {"construction": name, "n": h.n, "output": args.output, "verified": claims}
    if cert is not None:
        out["certificate"] = cert.as_dict()
    _emit(out)
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bentkit")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, func, text in (
        ("analyze", cmd_analyze, "full property profile as JSON"),
        ("wht", cmd_wht, "Walsh spectrum as JSON"),
        ("anf", cmd_anf, "algebraic normal form as JSON"),
    ):
        pa = sub.add_parser(name, help=text)
        pa.add_argument("path")
        pa.set_defaults(func=func)

    pd = sub.add_parser("dual", help="dual of a bent function")
    pd.add_argument("path")
    pd.add_argument("-o", "--output", default=None)
    pd.set_defaults(func=cmd_dual)

    pv = sub.add_parser("verify", help="fast path against brute-force oracle")
    pv.add_argument("--property", required=True, choices=sorted(oracle.VERIFIERS))
    pv.add_argument("path")
    pv.set_defaults(func=cmd_verify)

    pb = sub.add_parser("build", help="run a construction and certify the output")
    pb.add_argument("construction", choices=list(_BUILDS))
    pb.add_argument("-o", "--output")
    for option in _OPTIONS:  # each defaults to None, so cmd_build sees what was given
        pb.add_argument(f"--{option}", **_ARGUMENTS.get(option, {}))
    pb.set_defaults(func=cmd_build)

    return ap


# every character str.splitlines breaks at, and NUL, which a terminal
# shows as nothing, spelled as an escape
_ONE_LINE = str.maketrans(
    {c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029\x00"}
)


def _fail(exc: Exception | str, code: int) -> int:
    """One error line, even when the message quotes a path or value that
    holds a line break or a NUL."""
    print(f"error: {str(exc).translate(_ONE_LINE)}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:  # None when the process has no stdout
            sys.stdout.flush()  # a report that cannot be written fails here
        return code
    except TruthTableFormatError as exc:
        return _fail(exc, 2)
    except CapError as exc:
        return _fail(exc, 4)
    except (PremiseError, ValueError, KeyError) as exc:
        return _fail(exc, 3)
    except (OSError, RuntimeError) as exc:  # RuntimeError: an internal error
        return _fail(exc, 1)
