#!/usr/bin/env python3
"""wzkit benchmark: build a compound code, push source words through it, check
every output, and print each metric by name and unit.

    python3 perfbench/run.py --workload code11-p05 --seed 1 --seconds 20 --trace 0

Run it from the repository root.  It imports wzkit from ``src/`` beside this
directory and drives it only through public functions and
``wzkit.cli.main(argv)``, in one process with ``workers=1``.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with timings at the reference speed (see
REF_LOOP_S); with ``--trace 1`` every public wzkit callable
is wrapped in a span (see tracer.py) and the metrics are the per-layer ones.
``--size tiny`` runs the same harness on a 96-bit code in seconds, and
``--detail PATH`` writes the full record of the run (per-repeat timings, quality,
check failures, environment) as JSON.  README.md describes the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One thread everywhere, set before numpy is imported: the benchmark measures
# the program on a small shared machine, not its thread scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import Tracer, per_span_overhead  # noqa: E402

BUILDS = 3            # setup_s is the median of this many identical builds
# Every timed unit (a run_experiment call, a CLI command) runs this many times
# on identical inputs, in turn with the other units, and counts at the fastest
# of its repeats: the repeats do the same work, so what sets them apart is the
# shared machine, which only ever adds time.
REPEATS = 3
TRIP_WORDS = 3        # source words per CLI round trip
SIDE_DRAWS = 4        # side-information draws decoded per CLI syndrome
CLI_P = 0.05          # pair crossover of the CLI round trip's side information
# The code is part of the workload, like its geometry: every run builds the
# same code, and --seed draws only the inputs (experiment seeds, word files).
# Codes built from different seeds differ by up to a third in quantizer work
# per trial, which would swamp the run-to-run spread of every timing.
BUILD_SEED = 20260815
# The shared machine's speed drifts by up to 1.7x over minutes.  A fixed
# pure-Python loop, timed between timed units, measures that speed, and each
# unit's time is rescaled to the speed at which the loop takes REF_LOOP_S:
# wall seconds x REF_LOOP_S / (mean of the loop times just before and just
# after the unit).  The loop runs long enough to average the machine's
# sub-second jitter.  README.md ("Reference speed") gives the evidence.
REF_LOOP_ITERS = 600_000
REF_LOOP_S = 0.060


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "experiment" (run_experiment) or "cli" (wzkit.cli.main)
    dist: str            # catalog profile id
    params: dict         # CodeParams fields
    p: float
    trials: int          # trials per run_experiment call (experiment only)
    unit_s: float        # seed-commit seconds per trial (experiment) or per
                         # round trip (cli); sizes the work from --seconds


# The CLI round trip pays a fixed load and coefficient inverse per command, so
# at n = 4000 a run holds too few repeated trips; n = 2000 keeps the same code3
# shape and fits several.
CODE3_2K = dict(n=2000, m=1914, k1=400, k2=1200, zeta=10, poisson_lam=71.495,
                poisson_imax=160)
CODE11 = dict(n=4000, m=7200, k1=3270, k2=1106, zeta=10, poisson_lam=44.27,
              poisson_imax=100)

WORKLOADS = {w.name: w for w in (
    Workload("code11-p05", "experiment", "code11", CODE11, 0.05, 4, 0.21),
    Workload("cli-code3-p05", "cli", "code3", CODE3_2K, 0.05, 0, 2.4),
)}

# The 96-bit geometry and uniform degree-3 profile of the unit tests.
TINY_PARAMS = dict(n=96, m=92, k1=20, k2=60, zeta=4, poisson_lam=6.0,
                   poisson_imax=20)
TINY_CATALOG = """\
code tiny
lambda: 1.0 x^2
rho: 0.571429 x^2 + 0.428571 x^3
one_minus_r2: 0.875
"""

E2E_UNITS = {"setup_s": "s", "words_per_s": "1/s", "d1": "frac", "dt": "frac",
             "peak_rss_mb": "MiB"}


def import_wzkit():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import wzkit
        import wzkit.cli
    except ImportError as e:
        raise SystemExit(f"run.py: cannot import wzkit from {src}: {e}")
    if Path(wzkit.__file__).resolve().parent != src / "wzkit":
        raise SystemExit(f"run.py: imported wzkit from {wzkit.__file__}, "
                         f"not from {src}")
    return wzkit


def reference_loop() -> float:
    """Wall seconds of a fixed pure-Python loop, independent of wzkit."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


def derive(seed: int, *tags: int) -> int:
    """Independent 32-bit seed for one input stream of this run."""
    import numpy as np
    entropy = [seed % 2**64, *tags]   # SeedSequence takes no negative seeds
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


class Run:
    """One benchmark run: its inputs, timings, outcomes and check failures."""

    def __init__(self, wz, wl: Workload, seed: int, seconds: float, tiny: bool,
                 tracer: Tracer | None, work: Path):
        self.wz = wz
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.tracer = tracer
        self.work = work
        self.params = TINY_PARAMS if tiny else wl.params
        self.dist = "tiny" if tiny else wl.dist
        self.attempted = 0
        self.failures: list[str] = []
        self.record: dict = {}
        # (what, start, end) of every timed unit, for the traced run's check
        self.windows: list[tuple[str, float, float]] = []
        # wall seconds of every timed unit, in order, and reference_loop()
        # before each of them and after the last
        self.unit_s: list[float] = []
        self.ref_loop_s: list[float] = []
        self.build_units: list[int] = []
        # the benchmark's own arithmetic, taken before any wrapper is installed
        self.binary_convolve = wz.codec.binary_convolve

    # -- bookkeeping ---------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        """One operation attempted; a false check counts it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def timed(self, what: str, call):
        """One timed unit: a reference-loop sample, then call().  Returns what
        call returns and the unit's index in unit_s."""
        self.ref_loop_s.append(reference_loop())
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            return call(), len(self.unit_s)
        finally:
            t1 = time.perf_counter()
            self.record.setdefault("cpu_s", []).append(time.process_time() - c0)
            self.unit_s.append(t1 - t0)
            self.windows.append((what, t0, t1))

    def scaled_s(self, unit: int) -> float:
        """A unit's wall seconds at the reference speed, by the loop samples
        taken just before and just after it."""
        ref = (self.ref_loop_s[unit] + self.ref_loop_s[unit + 1]) / 2
        return self.unit_s[unit] * REF_LOOP_S / ref

    def cli(self, argv: list[str]) -> tuple[int, int, str]:
        """wzkit.cli.main(argv) in this process, as one timed unit;
        (exit code, unit index, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        span = (self.tracer.span(f"cli.{argv[0]}") if self.tracer
                else contextlib.nullcontext())

        def call() -> int:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), span:
                try:
                    return self.wz.cli.main(argv)
                except Exception as e:  # noqa: BLE001 - counted as a failed op
                    print(f"{type(e).__name__}: {e}", file=err)
                    return -1

        rc, unit = self.timed(f"wzkit {argv[0]}", call)
        if rc != 0:
            self.failures.append(f"wzkit {argv[0]} exited {rc}: "
                                 f"{err.getvalue().strip()[-300:]}")
        self.attempted += 1
        return rc, unit, out.getvalue()

    # -- set-up --------------------------------------------------------------

    def setup(self) -> Path:
        """`wzkit build` BUILDS times with one seed; the copies must match."""
        p = self.params
        argv = ["build", "--n", str(p["n"]), "--m", str(p["m"]),
                "--k1", str(p["k1"]), "--k2", str(p["k2"]),
                "--zeta", str(p["zeta"]), "--poisson-lam", str(p["poisson_lam"]),
                "--poisson-imax", str(p["poisson_imax"]), "--dist", self.dist,
                "--seed", str(BUILD_SEED)]
        if self.tiny:
            catalog = self.work / "catalog.txt"
            catalog.write_text(TINY_CATALOG)
            argv += ["--catalog", str(catalog)]
        dirs = []
        for i in range(BUILDS):
            out = self.work / f"code{i}"
            rc, unit, _ = self.cli(argv + ["--out", str(out)])
            if rc != 0:
                raise RuntimeError(f"build {i} failed: {self.failures[-1]}")
            self.build_units.append(unit)
            dirs.append(out)
        first = {f.name: f.read_bytes() for f in sorted(dirs[0].iterdir())}
        for d in dirs[1:]:
            same = {f.name: f.read_bytes() for f in sorted(d.iterdir())} == first
            self.check(same, f"build into {d.name} differs from code0 "
                             f"for the same seed")
        return dirs[0]

    # -- experiment workloads --------------------------------------------------

    def experiment(self, code) -> dict:
        """`run_experiment` on CALLS configs, each repeated REPEATS times in
        turn; a config's time is the fastest of its repeats."""
        codec = self.wz.codec
        if self.tiny:
            calls, trials = 2, 2
        else:
            trials = self.wl.trials
            calls = max(1, round(self.seconds
                                 / (REPEATS * trials * self.wl.unit_s)))
        params = self.wz.builder.CodeParams(**self.params)
        configs = [codec.ExperimentConfig(code_id=self.wl.name, params=params,
                                          p=self.wl.p, trials=trials,
                                          seed=derive(self.seed, 1, i))
                   for i in range(calls)]
        units: list[list[int]] = [[] for _ in configs]
        results: list = [None] * calls
        for rep in range(REPEATS):
            for i, config in enumerate(configs):
                if rep and results[i] is None:
                    continue
                what = f"run_experiment config {i} repeat {rep}"
                try:
                    res, unit = self.timed(what, lambda: codec.run_experiment(
                        code, config, workers=1))
                except Exception as e:  # noqa: BLE001 - counted as a failed op
                    self.check(False, f"{what} raised {type(e).__name__}: {e}")
                    results[i] = None
                    continue
                units[i].append(unit)
                if rep:
                    if not self.check(res == results[i], f"{what} differs from "
                                      f"repeat 0: {res} != {results[i]}"):
                        results[i] = None
                    continue
                ok = (res.trials == trials and res.seed == config.seed
                      and 0 <= res.failures <= trials
                      and all(0.0 <= d <= 0.5 for d in (res.d1, res.d2, res.dt)))
                if self.check(ok, f"{what} result out of range: {res}"):
                    results[i] = res
        done = [i for i in range(calls) if results[i] is not None]
        if not done:
            raise RuntimeError("every run_experiment config failed")
        self.record.update(trials_per_call=trials, call_s=[
            [self.unit_s[u] for u in us] for us in units])
        res = [results[i] for i in done]
        return {
            "words": trials * len(done),
            "repeats": [units[i] for i in done],
            "d1": sum(r.d1 for r in res) / len(res),
            "d2": sum(r.d2 for r in res) / len(res),
            "dt": sum(r.dt for r in res) / len(res),
            "decode_fail_frac": sum(r.failures for r in res) / (trials * len(res)),
        }

    # -- CLI round trip ------------------------------------------------------

    def cli_round_trips(self, code_dir: Path) -> list[dict]:
        """Round trips on word sets drawn from the seed, the whole list
        repeated REPEATS times in turn; checked later."""
        import numpy as np
        n = self.params["n"]
        words = 2 if self.tiny else TRIP_WORDS
        count = 2 if self.tiny else max(
            1, round(self.seconds / (REPEATS * self.wl.unit_s)))
        trips = []
        for t in range(count):
            rng = np.random.default_rng(derive(self.seed, 2, t))
            sources = rng.integers(0, 2, size=(words, n), dtype=np.uint8)
            flips = rng.random((words, SIDE_DRAWS, n)) < CLI_P
            side = (sources[:, None, :] ^ flips).reshape(-1, n)
            work = self.work / f"trip{t}"
            work.mkdir()
            _write_words(work / "sources.txt", sources)
            _write_words(work / "side.txt", side)
            trips.append({"work": work, "sources": sources, "side": side,
                          "cmd_units": ([], [], [])})
        for rep in range(REPEATS):
            for t, trip in enumerate(trips):
                self.cli_round_trip(code_dir, trip, f"trip {t} repeat {rep}", rep)
        return trips

    def cli_round_trip(self, code_dir: Path, trip: dict, what: str,
                       rep: int) -> None:
        """quantize, encode and decode commands on one trip's word files.

        Repeat 0 keeps what the commands wrote; a later repeat must write the
        same files and print the same lines."""
        import numpy as np
        work, code = trip["work"], str(code_dir)
        u_file, z_file = work / f"u{rep}.txt", work / f"z{rep}.txt"
        dec_file = work / f"decoded{rep}.txt"
        rc_q, u_q, out_q = self.cli(["quantize", "--code", code, "--in",
                                     str(work / "sources.txt"),
                                     "--out", str(u_file)])
        rc_e, u_e, out_e = self.cli(["encode", "--code", code, "--in",
                                     str(work / "sources.txt"),
                                     "--out", str(z_file)])
        if rc_q or rc_e:
            raise RuntimeError(f"{what}: quantize or encode command failed")
        if rep == 0:
            # the decoder's crossover comes from the distortion quantize reports
            d1 = float(re.search(r"mean distortion ([0-9.]+)", out_q).group(1))
            syndromes = _read_words(z_file)
            _write_words(work / "syn.txt",
                         np.repeat(syndromes, SIDE_DRAWS, axis=0))
            trip.update(reported_d1=d1, syndromes=syndromes,
                        crossover=self.binary_convolve(d1, CLI_P))
        rc_d, u_d, out_d = self.cli(["decode", "--code", code, "--side",
                                     str(work / "side.txt"), "--syndrome",
                                     str(work / "syn.txt"), "--crossover",
                                     repr(trip["crossover"]),
                                     "--out", str(dec_file)])
        if rc_d:
            raise RuntimeError(f"{what}: decode command failed")
        for units, unit in zip(trip["cmd_units"], (u_q, u_e, u_d)):
            units.append(unit)
        outputs = ([f.read_bytes() for f in (u_file, z_file, dec_file)],
                   [out_q, out_e, out_d])
        if rep == 0:
            trip.update(outputs=outputs, u=_read_words(u_file),
                        decoded=_read_words(dec_file),
                        converged=int(re.search(r"(\d+) converged",
                                                out_d).group(1)))
        else:
            self.check(outputs == trip["outputs"], f"{what}: the commands "
                       f"wrote or printed other output than repeat 0")

    def check_round_trip(self, code, files: dict) -> dict:
        """Every quantized word is a codeword with the syndrome encode wrote;
        every converged decode satisfies both syndromes."""
        from wzkit.gf2 import mul_vec
        from wzkit.quantizer import generator_codeword
        n = code.params.n
        sources, us, syns = files["sources"], files["u"], files["syndromes"]
        self.check(len(us) == len(sources) == len(syns),
                   f"{len(sources)} sources, {len(us)} u words, "
                   f"{len(syns)} syndromes")
        quantized, d1s = [], []
        for k, (src, u, z) in enumerate(zip(sources, us, syns)):
            w = generator_codeword(code.g1, _vec(u))
            z_w = mul_vec(code.h2, w)
            self.check(mul_vec(code.h1, w).weight() == 0 and z_w == _vec(z),
                       f"word {k}: u @ g1 fails h1 or does not match its syndrome")
            quantized.append(w)
            d1s.append(w.hamming(_vec(src)) / n)
        d1 = sum(d1s) / len(d1s)
        self.check(abs(d1 - files["reported_d1"]) < 1e-6,
                   f"quantize reported d1 {files['reported_d1']}, words give {d1}")
        decoded = files["decoded"]
        self.check(len(decoded) == len(files["side"]),
                   f"{len(decoded)} decoded words for {len(files['side'])} inputs")
        satisfied = correct = 0
        d2 = dt = 0.0
        for j, x in enumerate(decoded):
            k = j // SIDE_DRAWS
            xv = _vec(x)
            ok = (mul_vec(code.h1, xv).weight() == 0
                  and mul_vec(code.h2, xv) == _vec(syns[k]))
            satisfied += ok
            correct += ok and xv == quantized[k]
            d2 += xv.hamming(quantized[k]) / n
            dt += xv.hamming(_vec(sources[k])) / n
        self.check(satisfied == files["converged"],
                   f"decode reported {files['converged']} converged, "
                   f"{satisfied} outputs satisfy both syndromes")
        m = max(len(decoded), 1)
        return {"d1": d1, "d2": d2 / m, "dt": dt / m,
                "decode_fail_frac": 1.0 - correct / m}

    def cli_outcome(self, code, trips: list[dict]) -> dict:
        """Quality averaged over equal-sized trips; each command is one unit
        with its repeats."""
        words = len(trips[0]["sources"])
        per_trip = [self.check_round_trip(code, t) for t in trips]
        self.record.update(trip_words=words, side_draws=SIDE_DRAWS, cmd_s=[
            [[self.unit_s[u] for u in us] for us in t["cmd_units"]]
            for t in trips])
        outcome = {k: sum(q[k] for q in per_trip) / len(per_trip)
                   for k in per_trip[0]}
        outcome.update(words=words * len(trips), repeats=[
            us for t in trips for us in t["cmd_units"]])
        return outcome

    # -- the whole run -------------------------------------------------------

    def execute(self) -> dict:
        # wzkit functions are looked up on their modules at call time, so a
        # traced run reaches the wrappers installed here
        if self.tracer:
            self.tracer.install(self.wz)
        try:
            code_dir = self.setup()
            if self.wl.kind == "experiment":
                code = self.wz.builder.load_code(code_dir)
                t0 = time.perf_counter()
                outcome = self.experiment(code)
                timed_s = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                trips = self.cli_round_trips(code_dir)
                timed_s = time.perf_counter() - t0
            self.ref_loop_s.append(reference_loop())
        finally:
            if self.tracer:
                self.tracer.uninstall()
        if self.wl.kind == "cli":
            code = self.wz.builder.load_code(code_dir)
            outcome = self.cli_outcome(code, trips)
        self.check(_orthogonal(code.h1, code.g1), "g1 is not orthogonal to h1")

        def timings(seconds) -> dict:
            """setup_s and words_per_s from per-unit seconds; each repeated
            unit counts at its fastest repeat."""
            return {"setup_s": statistics.median(
                        seconds(u) for u in self.build_units),
                    "words_per_s": outcome["words"] / sum(
                        min(seconds(u) for u in us)
                        for us in outcome["repeats"])}

        wall = timings(self.unit_s.__getitem__)
        self.record.update(timed_s=timed_s, build_s=[
            self.unit_s[u] for u in self.build_units],
            ref_loop_s=self.ref_loop_s, wall=wall, quality={
                k: outcome[k] for k in ("d1", "d2", "dt", "decode_fail_frac")})
        return {**outcome, **timings(self.scaled_s),
                "ref_loop_s": statistics.median(self.ref_loop_s),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "nnz_h": sum(len(s) for s in code.h.row_support)}


def _orthogonal(h1, g1) -> bool:
    """h1 g1^T == 0 over GF(2), by a sparse integer product."""
    import numpy as np
    from scipy.sparse import csr_matrix

    def csr(a):
        lens = [len(s) for s in a.row_support]
        idx = np.fromiter((c for s in a.row_support for c in s), dtype=np.int32,
                          count=sum(lens))
        ptr = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
        return csr_matrix((np.ones(idx.size, dtype=np.int32), idx, ptr),
                          shape=(a.rows, a.cols))

    prod = csr(h1) @ csr(g1).T
    return not np.any(prod.data % 2)


def _write_words(path: Path, rows) -> None:
    """Word-file format: one 0/1 line per word, coordinate 0 first."""
    with open(path, "w", encoding="ascii") as f:
        for row in rows:
            f.write((row.astype("uint8") + ord("0")).tobytes().decode() + "\n")


def _read_words(path: Path):
    import numpy as np
    lines = [ln for ln in path.read_text().split("\n") if ln]
    if not lines:
        return np.zeros((0, 0), dtype=np.uint8)
    return np.frombuffer("".join(lines).encode(), dtype=np.uint8).reshape(
        len(lines), -1) - ord("0")


def _vec(bits):
    from wzkit.gf2 import BitVector
    return BitVector.from_bits_list(bits.tolist())


def per_layer_metrics(tracer: Tracer, values: dict, overhead_per_span: float
                      ) -> dict[str, tuple[float, str]]:
    spans = tracer.by_name()

    def dur(name):
        return spans.get(name, {}).get("dur", [])

    def med(name):
        d = dur(name)
        return statistics.median(d) if d else 0.0

    def counts(name, key):
        return [c[key] for c in spans.get(name, {}).get("counts", [])]

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    def layer_self(prefix):
        return sum(sum(rec["self"]) for name, rec in spans.items()
                   if name.startswith(prefix))

    def self_med(name):
        s = spans.get(name, {}).get("self", [])
        return statistics.median(s) if s else 0.0

    # the coefficient inverse is paid on the first call in each command
    first, rest, seen = [], [], set()
    for (name, start, end, _, _), root in zip(tracer.spans, tracer.roots()):
        if name == "codec.CompoundQuantizer.coefficients":
            (rest if root in seen else first).append(end - start)
            seen.add(root)

    from wzkit.quantizer import BipParams
    iterations = counts("decoder.sp_decode", "iterations")
    sp_total = sum(dur("decoder.sp_decode"))
    rounds = counts("quantizer.bip_quantize", "rounds")
    edges = counts("builder.peg_generate", "edges")
    overhead = overhead_per_span * len(tracer.spans)
    return {
        "builder.peg_generate.s": (med("builder.peg_generate"), "s"),
        "builder.peg_generate.edges": (
            statistics.median(edges) if edges else 0, "count"),
        "builder.all_one_diagonalize.s": (med("builder.all_one_diagonalize"), "s"),
        "builder.assemble_compound.s": (med("builder.assemble_compound"), "s"),
        "builder.design_poisson_generator.s": (
            med("builder.design_poisson_generator"), "s"),
        "builder.build_compound_code.self_s": (
            self_med("builder.build_compound_code"), "s"),
        "builder.save_code.s": (med("builder.save_code"), "s"),
        "builder.load_code.s": (med("builder.load_code"), "s"),
        "gf2.mul_vec.s_total": (sum(dur("gf2.mul_vec")), "s"),
        "gf2.mul_vec.calls": (len(dur("gf2.mul_vec")), "count"),
        "gf2.permute.s": (med("gf2.permute"), "s"),
        "gf2.read_matrix.s_total": (sum(dur("gf2.read_matrix")), "s"),
        "gf2.write_matrix.s_total": (sum(dur("gf2.write_matrix")), "s"),
        "degrees.s_total": (layer_self("degrees."), "s"),
        "quantizer.bip_quantize.s_p50": (med("quantizer.bip_quantize"), "s"),
        "quantizer.bip_quantize.s_total": (sum(dur("quantizer.bip_quantize")), "s"),
        "quantizer.bip_quantize.calls": (len(dur("quantizer.bip_quantize")), "count"),
        "quantizer.has_four_cycle.s_total": (
            sum(dur("quantizer.has_four_cycle")), "s"),
        "quantizer.has_four_cycle.calls": (
            len(dur("quantizer.has_four_cycle")), "count"),
        "quantizer.generator_codeword.s_total": (
            sum(dur("quantizer.generator_codeword")), "s"),
        "quantizer.rounds_mean": (mean(rounds), "count"),
        "quantizer.sweeps_mean": (
            mean(rounds) * BipParams().iters_per_round, "count"),
        "quantizer.conflict_events_mean": (
            mean(counts("quantizer.bip_quantize", "conflict_events")), "count"),
        "decoder.sp_decode.s_p50": (med("decoder.sp_decode"), "s"),
        "decoder.sp_decode.s_total": (sp_total, "s"),
        "decoder.sp_decode.calls": (len(dur("decoder.sp_decode")), "count"),
        "decoder.iterations_mean": (mean(iterations), "count"),
        "decoder.converged_frac": (
            mean(counts("decoder.sp_decode", "converged")), "frac"),
        # computed: edges of h times iterations run, over sp_decode seconds
        "decoder.edge_updates_per_s": (
            values["nnz_h"] * sum(iterations) / sp_total if sp_total else 0.0,
            "1/s"),
        "decoder.d2": (values["d2"], "frac"),
        "decoder.fail_frac": (values["decode_fail_frac"], "frac"),
        "codec.CompoundQuantizer.init_s": (
            sum(dur("codec.CompoundQuantizer.__init__")), "s"),
        "codec.CompoundQuantizer.quantize.self_s": (
            sum(spans.get("codec.CompoundQuantizer.quantize", {}).get("self", [])),
            "s"),
        "codec.CompoundQuantizer.coefficients.first_s": (
            statistics.median(first) if first else 0.0, "s"),
        "codec.CompoundQuantizer.coefficients.rest_s_p50": (
            statistics.median(rest) if rest else 0.0, "s"),
        "codec.run_experiment.self_s": (
            sum(spans.get("codec.run_experiment", {}).get("self", [])), "s"),
        "codec.encode.s_total": (sum(dur("codec.encode")), "s"),
        "codec.decode.s_total": (sum(dur("codec.decode")), "s"),
        **{f"cli.{cmd}.self_s": (self_med(f"cli.{cmd}"), "s")
           for cmd in ("build", "quantize", "encode", "decode")},
        "cli.calls": (sum(len(rec["dur"]) for name, rec in spans.items()
                          if name.startswith("cli.")), "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.overhead_s": (overhead, "s"),
        "trace.words_per_s": (values["words_per_s"], "1/s"),
        "trace.ref_loop_s": (values["ref_loop_s"], "s"),
    }


def check_coverage(run: Run, tracer: Tracer, per_span: float) -> None:
    """Each timed call, as the benchmark's own clock measured it, is covered
    by the self times of the spans recorded inside it, and each of those spans
    is filed under the innermost span that encloses it.  The uncovered part
    may be at most the estimated overhead of those spans plus 1% of the call,
    for the clock reads and any garbage collection outside the outermost
    span."""
    gaps = []
    for what, t0, t1 in run.windows:
        covered, count, misfiled = tracer.covered(t0, t1)
        gap = (t1 - t0) - covered
        allowed = per_span * (count + 1) + 0.01 * (t1 - t0)
        gaps.append(gap)
        run.check(count > 0 and misfiled == 0 and -1e-9 <= gap <= allowed,
                  f"{what}: {count} spans, {misfiled} filed under the wrong "
                  f"parent, cover {covered:.6f} s of the {t1 - t0:.6f} s "
                  f"measured around the call (allowed gap 0 to "
                  f"{allowed:.6f} s)")
    run.record["coverage_gap_s"] = gaps


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="about how long the timed part runs; sizes the work")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--detail", default=None, help="write the full record here")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    wz = import_wzkit()
    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    work_root = BENCH_DIR / ".work"
    work = work_root / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(wz, wl, args.seed, args.seconds, args.size == "tiny", tracer, work)
    try:
        values = run.execute()
    except RuntimeError as e:
        print(f"run.py: {e}", file=sys.stderr)
        for failure in run.failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    if tracer:
        per_span = per_span_overhead()
        metrics = per_layer_metrics(tracer, values, per_span)
        check_coverage(run, tracer, per_span)
    else:
        metrics = {k: (values[k], unit) for k, unit in E2E_UNITS.items()}

    for failure in run.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    failed = len(run.failures)
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:14s} {name:42s} {value:.6g} {unit}")
    print(f"{wl.name:14s} {'error_frac':42s} "
          f"{failed / max(run.attempted, 1):.6g} frac")
    if args.detail:
        record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "size": args.size,
                  "attempted": run.attempted, "failed": failed,
                  "failures": run.failures, **run.record,
                  "metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in metrics.items()},
                  "environment": environment()}
        Path(args.detail).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": run.attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
