"""Command-line front end.

Every command reads/writes the JSON formats declared by the library types.
Output files are written atomically (temp file + rename) so an error never
leaves a partial file behind.  Exit codes: 0 success, 1 invalid input,
2 property or census failure, or a broken library invariant.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import random
import sys
import tempfile

from .chains import MonoChain, chain_iso_test, chain_stable_hom_dim
from .endo import NonSplitEndomorphism
from .factorizations import (
    Factorization,
    FactorizationError,
    fac_stable_hom_dim,
    nu,
    nu_resolution,
    rotate,
    termwise_split_check,
    zigzag_check,
)
from .fields import FieldError, field_from_spec
from .functors import cok, cok_exactness_check, reconstruct
from .modules import HypersurfaceConfig, RealizationError


# the largest (l+1)*m*d every command except census accepts (inputs in use: <= 36)
MAX_CLI_SIZE = 1024


class InputError(Exception):
    """Bad flags, unreadable file, malformed JSON, invariant violation."""


class CheckFailure(Exception):
    """A verified property or the census failed."""


def _config(args) -> HypersurfaceConfig:
    try:
        field = field_from_spec(args.field)
    except FieldError as e:
        raise InputError(str(e))
    if args.d is None:
        raise InputError("--d is required for this command")
    if args.d < 1:
        raise InputError("--d must be >= 1")
    if args.l is not None and args.l < 1:
        raise InputError("--l must be >= 1")
    return HypersurfaceConfig(args.d, field)


def _load_json(path):
    if path is None:
        raise InputError("--in is required for this command")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise InputError(f"malformed JSON in {path}: {e}")


def _temp_beside(out_path):
    """(fd, path) of a new temp file in the directory of `out_path`."""
    return tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out_path)),
                            prefix=".facto-")


def _emit(data, out_path):
    """Print `data` as compact JSON with sorted keys, through the C encoder
    (an indent would send it to the pure-Python one), or atomically write it
    to --out: the UTF-8 bytes go to the temp file's descriptor, which is
    closed before the rename."""
    text = json.dumps(data, sort_keys=True)
    if out_path is None:
        print(text)
        return
    try:
        fd, tmp = _temp_beside(out_path)
        try:
            try:
                data = memoryview((text + "\n").encode())
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            os.replace(tmp, out_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise InputError(f"cannot write {out_path}: {e}")


def _check_writable(out_path):
    """Raise the InputError that `_emit` would, before a long run: the
    directory must take a temp file, and the path must not be a directory.
    The probe file is removed at once."""
    try:
        if os.path.isdir(out_path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out_path)
        fd, tmp = _temp_beside(out_path)
        os.close(fd)
        os.unlink(tmp)
    except OSError as e:
        raise InputError(f"cannot write {out_path}: {e}")


def _check_size(cfg, l, m):
    """InputError beyond MAX_CLI_SIZE: realizations, hom spaces and written
    polynomials grow with (l+1)*m*d, whatever the size of the input."""
    if (size := (l + 1) * m * cfg.d) > MAX_CLI_SIZE:
        raise InputError(f"(l+1)*m*d = {size} is above the cli's bound {MAX_CLI_SIZE}")


def _parse(cls, cfg, data, path):
    """cls.from_json(cfg, data), with malformed data or sizes as InputErrors."""
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(data).__name__}")
    objs = data.get("objects") if cls is MonoChain else None
    if isinstance(objs, list):  # a chain's size, before its modules are built
        sizes = [len(o["summands"]) for o in objs
                 if isinstance(o, dict) and isinstance(o.get("summands"), list)]
        _check_size(cfg, len(objs), max(sizes, default=0))
    try:
        x = cls.from_json(cfg, data)
    except (ValueError, KeyError, TypeError) as e:
        raise InputError(f"{path}: {e}")
    if cls is Factorization:
        _check_size(cfg, x.l, x.m)
    return x


def _load(cls, cfg, path):
    return _parse(cls, cfg, _load_json(path), path)


# commands ---------------------------------------------------------------------


def _cmd_validate(cfg, args):
    x = _load(Factorization, cfg, args.infile)
    report = {"valid": True, "m": x.m, "closing": x.closing.to_json()}
    _emit(report, args.out)


def _cmd_cok(cfg, args):
    x = _load(Factorization, cfg, args.infile)
    _emit(cok(x).to_json(), args.out)


def _cmd_reconstruct(cfg, args):
    u = _load(MonoChain, cfg, args.infile)
    _emit(reconstruct(u).to_json(), args.out)


def _cmd_rotate(cfg, args):
    x = _load(Factorization, cfg, args.infile)
    # Theta^{l+1} = tau from any phase: Theta^steps = tau^q Theta^r for
    # steps = q(l+1) + r, 0 <= r <= l, so the twist moves by q
    q, r = divmod(args.steps, x.l + 1)
    x = Factorization(x.cfg, x.maps, x.closing, x.twist + q, x.rot_phase)
    for _ in range(r):
        x = rotate(x)
    _emit(x.to_json(), args.out)


def _cmd_nu(cfg, args):
    if args.l is None or args.k is None or args.degs is None:
        raise InputError("nu requires --l, --k and --degs")
    try:
        degs = [int(s) for s in args.degs.split(",")]
    except ValueError:
        raise InputError(f"bad --degs {args.degs!r} (comma-separated integers)")
    if not (0 <= args.k <= args.l):
        raise InputError("--k must lie in [0, l]")
    _check_size(cfg, args.l, len(degs))
    _emit(nu(cfg, args.l, args.k, degs).to_json(), args.out)


def _cmd_resolve(cfg, args):
    x = _load(Factorization, cfg, args.infile)
    res = nu_resolution(x, side=args.side)
    ok = termwise_split_check(res, args.side)
    report = {
        "side": args.side,
        "middle": res.middle.to_json(),
        "map": res.map.to_json(),
        "termwise_split_exact": bool(ok),
    }
    _emit(report, args.out)
    if not ok:
        raise CheckFailure("resolution is not termwise split exact")


def _cmd_stable_hom(cfg, args):
    data = _load_json(args.infile)
    try:
        xd, yd = data["x"], data["y"]
    except (KeyError, TypeError):
        raise InputError(f'{args.infile}: expected an object with "x" and "y"')
    kind = MonoChain if isinstance(xd, dict) and "objects" in xd else Factorization
    x = _parse(kind, cfg, xd, f'{args.infile} "x"')
    y = _parse(kind, cfg, yd, f'{args.infile} "y"')
    stable = chain_stable_hom_dim if kind is MonoChain else fac_stable_hom_dim
    try:
        dim = stable(x, y)
    except ValueError as e:  # "x" and "y" of different lengths or l
        raise InputError(f"{args.infile}: {e}")
    _emit({"stable_hom_dim": dim}, args.out)


def _cmd_census(cfg, args):
    from .census import Bounds, MatchFailure, class_census

    if args.l is None:
        raise InputError("--l is required for census")
    try:
        bounds = Bounds.parse(args.bounds)
    except ValueError as e:
        raise InputError(str(e))
    if args.out is not None:
        _check_writable(args.out)
    try:
        report = class_census(cfg, args.l, bounds, seed=args.seed)
    except ValueError as e:
        raise InputError(str(e))
    except MatchFailure as e:
        raise CheckFailure(f"census failed: {e}")
    except NonSplitEndomorphism as e:
        raise CheckFailure(f"census undecided: {e}")
    print(report.to_table())
    if args.out is not None:
        _emit(report.to_json(), args.out)


def _cmd_selftest(cfg, args):
    from .census import hom_dim_compare
    from .randgen import random_chain, random_factorization, random_split_ses

    rng = random.Random(args.seed)
    l = args.l if args.l is not None else 2
    _check_size(cfg, l, 4)  # the middles of the random split SESs have m <= 4
    failures = []

    def check(name, fn):
        try:
            ok = fn()
        except Exception as e:  # noqa: BLE001 - report, do not crash
            ok = False
            name = f"{name} ({e})"
        print(f"{'pass' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    xs = [random_factorization(cfg, l, rng) for _ in range(5)]
    check("zigzag", lambda: all(zigzag_check(x) is True for x in xs))

    def full_rotation():
        for x in xs:
            y = x
            for _ in range(l + 1):
                y = rotate(y)
            if not (y.twist == x.twist + 1 and y.maps == x.maps):
                return False
        return True

    check("rotation", full_rotation)
    check(
        "resolutions",
        lambda: all(
            termwise_split_check(nu_resolution(x, side), side)
            for x in xs
            for side in ("epic", "monic")
        ),
    )
    us = [random_chain(cfg, l, rng) for _ in range(5)]
    check(
        "round trip",
        lambda: all(chain_iso_test(cok(reconstruct(u)), u) for u in us),
    )
    check(
        "exactness",
        lambda: all(
            cok_exactness_check(*random_split_ses(cfg, l, rng))
            for _ in range(3)
        ),
    )
    check(
        "hom comparison",
        lambda: all(
            hom_dim_compare(x, y)[2] for x in xs[:3] for y in xs[:3]
        ),
    )
    if failures:
        raise CheckFailure(f"{len(failures)} selftest group(s) failed")


# entry point --------------------------------------------------------------------


# every command's options, in --help order; its own options in _COMMANDS
# follow them or, as --seed's help does, replace them
_OPTIONS = {
    "--field": dict(default="fp:5", help="q or fp:<p> (default fp:5)"),
    "--d": dict(type=int, help="exponent of x^d"),
    "--l": dict(type=int, help="factorizations have l+1 factors"),
    "--in": dict(dest="infile", help="input JSON file"),
    "--out": dict(help="output file (atomic)"),
    "--seed": dict(type=int, default=0,
                   help="accepted; this command is deterministic and ignores it"),
}

# name: (function(cfg, args), help, own options); a function that returns
# has succeeded, and one that fails raises InputError or CheckFailure
_COMMANDS = {
    "validate": (_cmd_validate,
                 "validate a factorization file and print its closing map", {}),
    "cok": (_cmd_cok, "apply the cokernel functor to a factorization", {}),
    "reconstruct": (_cmd_reconstruct,
                    "rebuild a factorization from a chain of monos", {}),
    "rotate": (_cmd_rotate, "rotate a factorization (--steps, negative for inverse)",
               {"--steps": dict(type=int, default=1)}),
    "nu": (_cmd_nu, "build the projective factorization nu^k on given degrees",
           {"--k": dict(type=int),
            "--degs": dict(help="comma-separated generator degrees")}),
    "resolve": (_cmd_resolve, "nu-resolution of a factorization (--side epic|monic)",
                {"--side": dict(choices=("epic", "monic"), default="epic")}),
    "stable-hom": (_cmd_stable_hom,
                   "stable hom dimension between two objects in a file", {}),
    "census": (_cmd_census, "classify both sides within bounds and match them", {
        "--seed": dict(type=int, default=0,
                       help="accepted; the census is exact and does not depend on it"),
        "--bounds": dict(default="m=1,dim=2,window=2",
                         help="m=<int>,dim=<int>,window=<int>")}),
    "selftest": (_cmd_selftest, "run randomized property checks", {
        "--seed": dict(type=int, default=0,
                       help="seed of the random inputs that the checks run on")}),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once per process from _COMMANDS; parse_args leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="facto",
        description="graded matrix factorizations of x^d and chains of "
        "monomorphisms over k[x]/(x^d)",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text, own) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, kwargs in {**_OPTIONS, **own}.items():
            sp.add_argument(flag, **kwargs)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _COMMANDS[args.command][0](_config(args), args)
        return 0
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CheckFailure as e:
        print(f"failure: {e}", file=sys.stderr)
        return 2
    except (RealizationError, FactorizationError) as e:
        print(f"failure: invariant broken: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
