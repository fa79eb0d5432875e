"""Command line front end.

Exit codes: 0 success, 1 bad usage or malformed input files, 2 parameter
validation failure, 3 runtime failure.  Word files are ASCII, one word per
line, most significant coordinate last (line "10110" means bits 1,0,1,1,0 at
coordinates 0..4).
"""

from __future__ import annotations

import argparse
import json
import sys
from argparse import SUPPRESS
from pathlib import Path

import numpy as np

from . import __version__
from .builder import (RETIRED_PARAMS, CodeParams, ParamValidationError,
                      _check_build, build_compound_code, load_code, save_code,
                      validate_params)
from .codec import (ExperimentConfig, decode, encode_all, invert_bound,
                    run_experiment, write_curve_csv, write_results_csv,
                    wz_boundary, wz_rate)
from .decoder import SpParams
from .degrees import CatalogEntry, load_catalog, parse_catalog
from .gf2 import BitVector

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_FAILURE = 3


class UsageError(ValueError):
    """Malformed user input (config files, word files, unknown ids)."""


class _InvalidGeometry(ValueError):
    """A config entry whose geometry describes no code (CodeParams)."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_words(path: str, length: int | None = None) -> list[BitVector]:
    words = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        bits = np.frombuffer(line.encode(), dtype=np.uint8) - ord("0")
        if (bits > 1).any():
            raise UsageError(f"{path}:{lineno}: word lines must be 0/1 only")
        if length is not None and bits.size != length:
            raise UsageError(f"{path}:{lineno}: expected {length} bits, got {bits.size}")
        words.append(BitVector.from_array(bits))
    if not words:
        raise UsageError(f"{path}: no words found")
    return words


def _write_words(path: str, words: list[BitVector]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join((w.to_array() + ord("0")).tobytes().decode() + "\n"
                        for w in words))


def _resolve_catalog(path: str | None) -> dict[str, CatalogEntry]:
    if path is None:
        return load_catalog()
    return parse_catalog(Path(path).read_text())


def _resolve_dist(args) -> CatalogEntry:
    catalog = _resolve_catalog(getattr(args, "catalog", None))
    if args.dist not in catalog:
        known = ", ".join(sorted(catalog))
        raise UsageError(f"unknown degree profile {args.dist!r} (known: {known})")
    return catalog[args.dist]


def _cmd_build(args) -> int:
    entry = _resolve_dist(args)
    try:
        params = CodeParams(n=args.n, m=args.m, k1=args.k1, k2=args.k2)
    except (TypeError, ValueError) as e:
        print(f"invalid: {e}", file=sys.stderr)
        return EXIT_INVALID
    report = validate_params(params)
    for check in report.checks:
        flag = "ok" if check.ok else "FAIL"
        print(f"{flag:4s} {check.name}: {check.detail}")
    if not report.ok:
        return EXIT_INVALID
    code = build_compound_code(params, entry.dist, args.seed, dist_id=args.dist)
    save_code(code, args.out)
    r1, r2, rt = params.rates
    print(f"built {args.dist} at n={params.n}: R1={r1:.4f} R2={r2:.4f} Rt={rt:.4f}")
    print(f"saved to {args.out}")
    return EXIT_OK


def _cmd_quantize(args) -> int:
    code = load_code(args.code)
    words = _read_words(args.infile, code.params.n)
    out = []
    total = 0.0
    for res in code.quantizer.quantize_all(words):
        out.append(res.u)
        total += res.distortion
    _write_words(args.out, out)
    print(f"quantized {len(words)} words, mean distortion {total / len(words):.6f}")
    return EXIT_OK


def _cmd_encode(args) -> int:
    code = load_code(args.code)
    words = _read_words(args.infile, code.params.n)
    syndromes = []
    total = 0.0
    for res in encode_all(code, words):
        syndromes.append(res.syndrome)
        total += res.quantized.distortion
    _write_words(args.out, syndromes)
    rt = code.params.k2 / code.params.n
    print(f"encoded {len(words)} words at rate {rt:.4f}, "
          f"mean distortion {total / len(words):.6f}")
    return EXIT_OK


def _cmd_decode(args) -> int:
    sp = SpParams(crossover=args.crossover)
    code = load_code(args.code)
    side = _read_words(args.side, code.params.n)
    syndromes = _read_words(args.syndrome, code.params.k2)
    if len(side) != len(syndromes):
        raise UsageError(f"{len(side)} side words vs {len(syndromes)} syndromes")
    out = []
    converged = 0
    for s, z in zip(side, syndromes):
        res = decode(code, s, z, sp)
        out.append(res.bits)
        converged += res.converged
    _write_words(args.out, out)
    print(f"decoded {len(out)} words, {converged} converged")
    return EXIT_OK


def _experiment_from(entry: dict, number: int
                     ) -> tuple[ExperimentConfig, str, int]:
    """The config, profile id and build seed of the entry that experiment
    messages call `number`, counted from 1."""
    if not isinstance(entry, dict):
        raise UsageError(f"experiment {number}: expected an object, got "
                         f"{json.dumps(entry)}")
    entry = {k: v for k, v in entry.items() if k not in RETIRED_PARAMS}
    # every key but build_seed is required
    types = {"code_id": str, "dist": str, "n": int, "m": int, "k1": int,
             "k2": int, "p": float, "trials": int, "seed": int,
             "build_seed": int}
    for key in types:
        if key not in entry and key != "build_seed":
            raise UsageError(f"experiment {number}: missing key {key!r}")
    for key, value in entry.items():
        if key not in types:
            raise UsageError(f"experiment {number}: unknown key {key!r}")
        # true and false are no integers; a float key takes any number
        kind = types[key]
        if not (type(value) is kind or kind is float and type(value) is int):
            raise UsageError(f"experiment {number}: key {key!r} must be "
                             f"{kind.__name__}, got {json.dumps(value)}")
    try:
        params = CodeParams(entry["n"], entry["m"], entry["k1"], entry["k2"])
    except ValueError as e:
        raise _InvalidGeometry(e) from None
    try:
        config = ExperimentConfig(entry["code_id"], params, entry["p"],
                                  entry["trials"], entry["seed"])
    except ValueError as e:
        raise ValueError(f"experiment {number}: {e}") from None
    return config, entry["dist"], entry.get("build_seed", entry["seed"])


def _run_entries(entries, catalog, workers: int):
    """Build and run each entry, yielding each result as it ends."""
    for number, (config, dist_id, build_seed) in enumerate(entries, start=1):
        print(f"[{number}/{len(entries)}] building {config.code_id} "
              f"(n={config.params.n})", flush=True)
        code = build_compound_code(config.params, catalog[dist_id].dist,
                                   build_seed, dist_id=dist_id)
        print(f"[{number}/{len(entries)}] running {config.trials} "
              f"trials at p={config.p}", flush=True)
        result = run_experiment(code, config, workers=workers)
        print(f"  d1={result.d1:.4f} d2={result.d2:.4f} Dt={result.dt:.4f} "
              f"Dwz={result.dwz:.4f} gap={result.gap:.4f} "
              f"failures={result.failures}", flush=True)
        yield result


def _cmd_run(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    text = Path(args.config).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"{args.config}:{e.lineno}:{e.colno}: {e.msg}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("experiments"), list):
        raise UsageError(f"{args.config}: expected an object with an "
                         f"'experiments' array")
    catalog = _resolve_catalog(args.catalog)
    # every entry is checked before the first build, which can take hours
    entries, invalid = [], []
    # entries are numbered from 1, as the progress lines count them
    for number, entry in enumerate(doc["experiments"], start=1):
        try:
            config, dist_id, build_seed = _experiment_from(entry, number)
        except _InvalidGeometry as e:
            invalid.append(f"invalid: experiment {number}: {e}")
            continue
        # a known profile is also checked to fit the geometry
        report = (_check_build(config.params, catalog[dist_id].dist)
                  if dist_id in catalog else validate_params(config.params))
        invalid += [f"invalid: experiment {number}: {c.name} ({c.detail})"
                    for c in report.failures()]
        entries.append((config, dist_id, build_seed))
    if invalid:
        print("\n".join(invalid), file=sys.stderr)
        return EXIT_INVALID
    for number, (config, dist_id, _) in enumerate(entries, start=1):
        if dist_id not in catalog:
            raise UsageError(f"experiment {number}: unknown degree profile "
                             f"{dist_id!r}")
        # a p whose bound has no value fails here, not after the build
        invert_bound(config.params.rates[2], config.p)
    # opened before the first build, so an unwritable --out fails at once
    with open(args.out, "w", encoding="utf-8") as f:
        write_results_csv(f, _run_entries(entries, catalog, args.workers))
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_bound(args) -> int:
    if args.points < 2:
        raise UsageError(f"--points must be >= 2, got {args.points}")
    if args.rate is not None:
        print(f"{invert_bound(args.rate, args.p):.9f}")
        return EXIT_OK
    if args.distortion is not None:
        print(f"{wz_rate(args.distortion, args.p):.9f}")
        return EXIT_OK
    d_c, r_c = wz_boundary(args.p)
    print(f"boundary point: distortion={d_c:.6f} rate={r_c:.6f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            write_curve_csv(f, args.p, args.points)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_verify_example(args) -> int:
    from .worked_example import verify
    failures = 0
    for check in verify():
        flag = "PASS" if check.ok else "FAIL"
        line = f"{flag} {check.name}"
        if check.detail:
            line += f" ({check.detail})"
        print(line)
        failures += not check.ok
    return EXIT_OK if failures == 0 else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wzkit",
        description="Distributed lossy compression with nested sparse codes")
    parser.add_argument("--version", action="version",
                        version=f"wzkit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    b = subs.add_parser("build", help="construct a code and save it")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--k1", type=int, required=True)
    b.add_argument("--k2", type=int, required=True)
    for name in RETIRED_PARAMS:      # accepted for older scripts, ignored
        b.add_argument("--" + name.replace("_", "-"), help=SUPPRESS)
    b.add_argument("--dist", required=True, help="degree profile id")
    b.add_argument("--catalog", default=None, help="catalog file override")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True, help="output directory")
    b.set_defaults(func=_cmd_build)

    q = subs.add_parser("quantize", help="quantize source words, writing each "
                        "word's free blocks")
    q.add_argument("--code", required=True, help="code directory")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_quantize)

    e = subs.add_parser("encode", help="quantize and emit syndromes")
    e.add_argument("--code", required=True)
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=_cmd_encode)

    d = subs.add_parser("decode", help="reconstruct from syndrome and side info")
    d.add_argument("--code", required=True)
    d.add_argument("--side", required=True)
    d.add_argument("--syndrome", required=True)
    d.add_argument("--crossover", type=float, required=True,
                   help="estimated word-to-side-info crossover")
    d.add_argument("--out", required=True)
    d.set_defaults(func=_cmd_decode)

    r = subs.add_parser("run", help="run experiments from a JSON config")
    r.add_argument("--config", required=True)
    r.add_argument("--catalog", default=None)
    r.add_argument("--workers", type=int, default=1)
    r.add_argument("--out", required=True, help="results CSV path")
    r.set_defaults(func=_cmd_run)

    bo = subs.add_parser("bound", help="rate-distortion bound queries")
    bo.add_argument("--p", type=float, required=True)
    query = bo.add_mutually_exclusive_group()
    query.add_argument("--rate", type=float, default=None,
                       help="print the distortion at this rate")
    query.add_argument("--distortion", type=float, default=None,
                       help="print the rate at this distortion")
    bo.add_argument("--points", type=int, default=200)
    bo.add_argument("--out", default=None, help="curve CSV path")
    bo.set_defaults(func=_cmd_bound)

    v = subs.add_parser("verify-example", help="re-derive the built-in fixture")
    v.set_defaults(func=_cmd_verify_example)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParamValidationError as e:
        for check in e.report.failures():
            print(f"invalid: {check.name} ({check.detail})", file=sys.stderr)
        return EXIT_INVALID
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
