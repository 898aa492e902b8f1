#!/usr/bin/env python3
"""Benchmark for delaybandits: simulated rounds per second on seeded sweep
workloads, with a separate traced run for the cost of each layer.

Run from the root of a checkout:

    python3 bench/run.py --workload drift-sweep --seed 0 --seconds 36 --trace 0

The package is imported from ``src/`` of the checkout; nothing is
installed.  The run is a closed loop in one process with one worker: it
plays one pass of games after another (``cli.run_one`` per game, then
``cli.write_rows``, then ``analyze`` where the workload has it).  The whole
run, set-up probes included, is meant to fit in ``--seconds``: no pass is
started that would overrun if it took as long as the one before, but at
least one is always played.  Pass ``p`` of seed ``s`` is the spec of the
workload with seed base ``1000 * s + p``.

Every run is checked from outside: regret replay must not raise, wrapped
runs must pass ``analysis.audit_delay_accounting``, the parity trap must
force its observations and leave zero policy regret.  At the default seed
the CSV and analyze output of pass 0 must match the digests pinned in
``expected.json`` (rewrite them with ``--pin`` when outputs change on
purpose).

``--trace 0`` prints the end-to-end metrics, with times in reference
seconds (see ``reference_s``) so that the machine's changing speed cancels.
``--trace 1`` plays pass 0 untraced and then traced passes, and prints the
per-layer metrics; it plays pass 0 traced once more at the end and requires
its digests and deterministic counters to repeat exactly.  The spans go to
``.bench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON detail record (environment, sample counts, calibration).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 0
SETUP_PROBES = 9
RSS_PASSES = 3
#: typical time of one ``reference_s`` call between runs on the 2-core Xeon VM the bounds
#: were set on; end-to-end times are reported in these reference seconds
REF_NOMINAL_S = 2.8e-3
REF_STEPS = 200
REF_READS_PER_STEP = 24
#: the same for one ``import_reference_s`` call
IMPORT_REF_NOMINAL_S = 0.18
IMPORT_REFERENCE = ("import argparse, asyncio, decimal, email.mime.multipart, http.client, "
                    "tarfile, unittest, xml.dom.minidom")

# Workloads vary what the engine's per-round cost depends on: the learner
# (update every round or once per batch), the adversaries (walk plus
# masking state machine, or trivial parity rules) and the delay span d
# (components carried per round).
WORKLOADS = {
    # the headline experiment and the README pipeline: gap walk masked by the
    # state machine, wrapped EXP3, default sweep grid, then a bootstrap fit;
    # the loss is oblivious, so a regret fast path would act here
    "drift-sweep": dict(
        spec=dict(adversary="gapwalk", delay="statemachine", learner="wrapper-exp3",
                  horizons=tuple(2 ** k for k in range(10, 17)), repetitions=2),
        analyze=True,
    ),
    # raw EXP3 updates every round while both adversaries are trivial; the
    # memory-1 loss keeps the replay path
    "trap-exp3": dict(
        spec=dict(adversary="paritytrap", delay="parity", learner="exp3",
                  horizons=(2 ** 13,), memory_bound=1, repetitions=16),
        analyze=False,
    ),
    # 32 components per round through split validation and the feedback
    # buffer, the largest transcript per round, and an i.i.d. table per run
    "wide-delay": dict(
        spec=dict(adversary="iid", delay="lastslot", learner="wrapper-exp3",
                  horizons=(2 ** 13,), delay_span=32, repetitions=8),
        analyze=False,
    ),
}

# realized_total is strictly positive on every seed, so the power-law fit
# never meets an all-zero horizon; it grows linearly in T
ANALYZE_ARGS = ("--metric", "realized_total", "--bootstrap", "200")
ALPHA_RANGE = (0.9, 1.1)


class BenchError(Exception):
    """The benchmark cannot run here."""


# ---------------------------------------------------------------------------
# machine speed
#
# The shared machine this benchmark was built on has slow spells: one CPU at
# a time runs interpreted code up to 1.9x slower, for a fraction of a second
# to tens of seconds, so raw wall times of identical runs spread by 20-40 %.
# Every timed operation is therefore bracketed by a fixed reference
# workload, and its time is reported as ``wall * REF_NOMINAL_S / reference``:
# the time it would take when the reference takes REF_NOMINAL_S.  The
# reference is the benchmark's own code, so changes to the package move the
# numerator only.  Raw wall figures are kept in the detail record.
#
# A process that moves between CPUs changes speed far more often than
# either CPU does, so the benchmark pins itself, and the processes it
# starts, to one CPU.  Importing slows down less in a spell (about 1.4x
# where the interpreted reference takes 1.8x), so the import part of
# set-up is scaled by a reference that imports instead
# (``import_reference_s``).


class _RefState:
    __slots__ = ("arm", "probs")

    def __init__(self, arm, probs):
        self.arm = arm
        self.probs = probs


_TABLE: list = []


def reference_s() -> float:
    """Wall time of a fixed workload: per step a numpy scalar draw, an
    inverse-CDF sample, an exponential-weights refresh, a slotted object
    and ``REF_READS_PER_STEP`` scattered reads of an 8 MiB table.

    The reads bring the reference's sensitivity to the machine's slow spells
    down to about that of long games, which run against large transcripts.
    The collector is off while it runs, so its time does not depend on how
    many objects the package left alive."""
    import numpy as np

    if not _TABLE:
        _TABLE.append(array("q", range(1 << 20)))
    table, mask = _TABLE[0], (1 << 20) - 1
    rng = np.random.default_rng(12345)
    probs, total = (0.5, 0.5), 0
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for t in range(REF_STEPS):
            u, acc, arm = rng.random(), 0.0, 0
            for arm, p in enumerate(probs):
                acc += p
                if u < acc:
                    break
            w = [math.exp(-0.01 * (c + t % 7)) for c in probs]
            z = math.fsum(w)
            probs = _RefState(arm, tuple(x / z for x in w)).probs
            j = t
            for _ in range(REF_READS_PER_STEP):
                j = (j * 1103515245 + 12345) & mask
                total += table[j]
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def import_reference_s() -> float:
    """Wall time of a fresh interpreter importing a fixed set of standard
    library modules: work of the kind the package's import does, which the
    package cannot change."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-I", "-c", IMPORT_REFERENCE], check=True)
    return perf_counter() - t0


def in_ref_s(wall: float, ref_before: float, ref_after: float) -> float:
    """``wall`` seconds in reference seconds, given the reference timed
    right before and right after."""
    return wall * REF_NOMINAL_S / ((ref_before + ref_after) / 2)


# ---------------------------------------------------------------------------
# workload plumbing


def import_package():
    """Import delaybandits from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "delaybandits" / "__init__.py").is_file():
        raise BenchError(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import delaybandits

    if Path(delaybandits.__file__).resolve().parent != SRC / "delaybandits":
        raise BenchError(f"imported delaybandits from {delaybandits.__file__}, not {SRC}")
    return delaybandits


def make_spec(workload: str, seed: int, pass_index: int):
    from delaybandits import cli

    return cli.ExperimentSpec(seed_base=1000 * seed + pass_index, workers=1,
                              **WORKLOADS[workload]["spec"])


def jobs_of(spec) -> list:
    # the order cli.execute_spec uses with one worker
    return [(t, r) for t in spec.horizons for r in range(spec.repetitions)]


def check_run(workload: str, row: dict, cap) -> list:
    """Invariants of one run that hold for every seed."""
    from delaybandits import analysis

    problems = []
    tr = cap.transcript
    _, learner, _, _, tau = cap.built
    if len(tr.actions) != row["T"] or len(tr.observed) != row["T"]:
        problems.append("transcript length differs from T")
    for key in ("policy_regret", "pseudo_regret", "realized_total"):
        if not math.isfinite(row[key]):
            problems.append(f"{key} is {row[key]!r}")
    if hasattr(learner, "inner"):
        audit = analysis.audit_delay_accounting(tr, tau)
        if not audit.passed:
            problems.extend(audit.failures[:3])
    if workload == "trap-exp3":
        if any(obs != (0.0 if t & 1 else 1.0) for t, obs in enumerate(tr.observed, 1)):
            problems.append("parity trap observations are not forced")
        if row["T"] % 2 == 0 and row["policy_regret"] != 0.0:
            problems.append(f"parity trap policy regret {row['policy_regret']!r} != 0")
    return problems


def csv_digest(path: Path) -> str:
    """sha256 of the CSV with the wall_time_ms column left out."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time_ms")
    h = hashlib.sha256()
    for row in rows:
        h.update((",".join(c for i, c in enumerate(row) if i != drop) + "\n").encode())
    return h.hexdigest()


def analyze(path: Path) -> str:
    """Run ``delaybandits analyze`` on a CSV; returns its JSON output."""
    from delaybandits import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["analyze", str(path), *ANALYZE_ARGS])
    if code != 0:
        raise RuntimeError(f"analyze exited {code}")
    return buf.getvalue().strip()


class PassResult:
    def __init__(self, index: int):
        self.index = index
        self.rounds = 0
        self.attempted = 0
        self.failures: list = []
        self.runs: list = []       # (T, wall s in cli.run_one, reference s)
        self.output_s = 0.0        # cli.write_rows + analyze, wall
        self.output_ref_s = 0.0    # the same in reference seconds
        self.digests: dict = {}
        self.counters: dict = {}
        self.summary: dict = {}
        self.c_in = self.c_out = 0.0   # wrapper-cost calibration of a traced pass
        self.records: list = []
        self.transcript_bytes = 0
        self.transcript_rounds = 0


def run_pass(workload: str, seed: int, index: int, tracer=None,
             size_transcripts: bool = False) -> PassResult:
    """Play every job of pass ``index``, write its CSV and analyze it."""
    from delaybandits import cli

    from spans import deep_size, instrument

    res = PassResult(index)
    spec = make_spec(workload, seed, index)
    run_one, write_rows, analyze_fn = cli.run_one, cli.write_rows, analyze
    if tracer is not None:
        run_one = tracer.coarse("cli.run_one", run_one)
        write_rows = tracer.coarse("cli.write_rows", write_rows)
        analyze_fn = tracer.coarse("analysis.analyze", analyze_fn)
    rows, switches = [], 0
    with instrument(tracer) as cap:
        for horizon, rep in jobs_of(spec):
            res.attempted += 1
            ref = reference_s()
            t0 = perf_counter()
            try:
                row = run_one(spec, horizon, rep)
            except Exception as e:  # every failed run is counted, not fatal
                res.failures.append(f"T={horizon} rep={rep}: {type(e).__name__}: {e}")
                continue
            dt = perf_counter() - t0
            res.rounds += horizon
            res.runs.append((horizon, dt, in_ref_s(dt, ref, reference_s())))
            problems = check_run(workload, row, cap)
            if problems:
                res.failures.append(f"T={horizon} rep={rep}: {'; '.join(problems)}")
            switches += getattr(cap.built[3], "switch_count", 0)
            if size_transcripts:
                res.transcript_bytes += deep_size(cap.transcript)
                res.transcript_rounds += horizon
            rows.append(row)
        rows.sort(key=lambda r: (r["T"], r["seed"]))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{workload}-seed{seed}-pass{index}.csv"
        res.attempted += 1  # writing and analyzing the pass is one more operation
        try:
            ref = reference_s()
            t0 = perf_counter()
            write_rows(str(path), rows)
            if WORKLOADS[workload]["analyze"]:
                fit = analyze_fn(path)
            res.output_s = perf_counter() - t0
            res.output_ref_s = in_ref_s(res.output_s, ref, reference_s())
            res.digests["csv"] = csv_digest(path)
            if WORKLOADS[workload]["analyze"]:
                res.digests["analyze"] = hashlib.sha256(fit.encode()).hexdigest()
                alpha = json.loads(fit)["alpha"]
                if not ALPHA_RANGE[0] < alpha < ALPHA_RANGE[1]:
                    raise RuntimeError(f"fitted exponent {alpha!r} outside {ALPHA_RANGE}")
        except Exception as e:
            res.failures.append(f"pass {index} output: {type(e).__name__}: {e}")
        finally:
            path.unlink(missing_ok=True)
    if tracer is not None:
        res.summary = tracer.summary()
        res.c_in, res.c_out = tracer.c_in, tracer.c_out
        res.records = tracer.records
        res.counters = deterministic_counters(res, tracer, switches)
    return res


def deterministic_counters(res: PassResult, tracer, switches: int) -> dict:
    s = res.summary
    inner = s.get(("learners.observe", "learners.inner_observe"))
    updates = inner if inner is not None else s.get(("core.run_game", "learners.observe"))
    return {
        "rounds": res.rounds,
        "replay_loss_calls": s.get(("core.policy_regret", "adversaries.loss"), [0, 0, 0])[2],
        "inner_updates": updates[2] if updates else 0,
        "state_switches": switches,
        "clamped_components": tracer.counts["clamped_components"],
        "clipped_batches": tracer.counts["clipped_batches"],
    }


# ---------------------------------------------------------------------------
# end-to-end run


def tail(values: list) -> tuple:
    """Highest order statistic with at least ten samples above it, and the
    percentile it stands for."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 11) / (n - 1)


def rounds_per_s(workload: str, passes, raw: bool = False) -> float:
    """Rounds of one pass over the time one pass takes, with each run's
    time per round the median over all runs of its horizon and the output
    time the median over passes; in reference seconds unless ``raw``."""
    per_round: dict = {}
    for p in passes:
        for t, wall, ref in p.runs:
            per_round.setdefault(t, []).append((wall if raw else ref) / t)
    spec = WORKLOADS[workload]["spec"]
    if any(t not in per_round for t in spec["horizons"]):
        return 0.0  # a horizon without a single successful run has no throughput
    jobs = [t for t in spec["horizons"] for _ in range(spec["repetitions"])]
    pass_s = sum(t * statistics.median(per_round[t]) for t in jobs)
    pass_s += statistics.median(p.output_s if raw else p.output_ref_s for p in passes)
    return sum(jobs) / pass_s


def probe_setup(workload: str, seed: int) -> dict:
    """One set-up in this fresh process: import the package, build every
    component of pass 0 and materialize the walks and tables.  The import
    is in wall seconds, for the calling process to scale; the build is
    also given in reference seconds, bracketed here."""
    t0 = perf_counter()
    import_package()
    from delaybandits import cli
    from delaybandits.seeding import run_seed

    t1 = perf_counter()
    ref = steady_reference_s()
    t2 = perf_counter()
    spec = make_spec(workload, seed, 0)
    for horizon, rep in jobs_of(spec):
        loss = cli._build_run(spec, horizon, run_seed(spec.seed_base, rep))[2]
        if hasattr(loss, "walk"):
            loss.walk.values()
    t3 = perf_counter()
    return {"import_s": t1 - t0, "build_s": t3 - t2,
            "build_ref_s": in_ref_s(t3 - t2, ref, steady_reference_s())}


def steady_reference_s() -> float:
    return statistics.median(reference_s() for _ in range(3))


def measure_setup(workload: str, seed: int) -> list:
    """Set up in ``SETUP_PROBES`` fresh processes, one after another, with
    the import reference timed between them; each import is scaled by the
    references right before and right after it."""
    samples = []
    ref = import_reference_s()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        after = import_reference_s()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["setup_s"] = (sample["import_s"] * IMPORT_REF_NOMINAL_S / ((ref + after) / 2)
                             + sample["build_ref_s"])
        samples.append(sample)
        ref = after
    return samples


def end_to_end(workload: str, seed: int, deadline: float, detail: dict) -> tuple:
    setups = measure_setup(workload, seed)
    passes, last = [], 0.0
    # stop when another pass as long as the last one would overrun
    while not passes or perf_counter() + last < deadline:
        t0 = perf_counter()
        passes.append(run_pass(workload, seed, len(passes)))
        last = perf_counter() - t0
        if len(passes) <= RSS_PASSES:
            # the peak depends on the data of a pass, so it is taken over the
            # same number of passes however many fit in the time
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes[0].failures += pinned_mismatch(workload, seed, passes[0], traced=False)
    problems = [f for p in passes for f in p.failures]

    samples = [ref / t * 1e6 for p in passes for t, _, ref in p.runs]
    if not samples:
        raise BenchError(f"no run succeeded: {problems[:3]}")
    tail_value, tail_pct = tail(samples)
    attempted = sum(p.attempted for p in passes)
    failed = min(len(problems), attempted)
    metrics = {
        "rounds_per_s": (rounds_per_s(workload, passes), "1/s"),
        "run_us_per_round_p50": (statistics.median(samples), "us"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mib": (peak_rss, "MiB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    detail.update(
        passes=len(passes), runs=len(samples),
        run_us_per_round_tail=tail_value, tail_percentile=tail_pct,
        wall_rounds_per_s=rounds_per_s(workload, passes, raw=True),
        wall_run_us_per_round_p50=statistics.median(
            wall / t * 1e6 for p in passes for t, wall, _ in p.runs),
        setup_samples=setups, problems=problems[:20],
    )
    return metrics, attempted, failed, problems, passes


# ---------------------------------------------------------------------------
# traced run


def total(passes, name: str, parent: str | None = None, column: int = 0) -> float:
    """Sum of one column of the span summaries (0 net seconds, 1 self
    seconds, 2 calls) over spans called ``name``, optionally only those
    under ``parent``."""
    return sum(v[column] for p in passes for (par, n), v in p.summary.items()
               if n == name and parent in (None, par))


def traced(workload: str, seed: int, deadline: float, detail: dict) -> tuple:
    from spans import Tracer, calibrate

    # the machine's speed drifts, so the wrapper cost is calibrated afresh
    # right before each traced pass
    plain = run_pass(workload, seed, 0)
    passes, last = [], 0.0
    # leave room for one more pass and the repeat of pass 0
    while not passes or perf_counter() + 2 * last < deadline:
        i = len(passes)
        t0 = perf_counter()
        passes.append(run_pass(workload, seed, i, Tracer(*calibrate()), size_transcripts=i == 0))
        last = perf_counter() - t0
    again = run_pass(workload, seed, 0, Tracer(*calibrate()))

    first = passes[0]
    first.failures += plain.failures + again.failures
    if plain.digests != first.digests or again.digests != first.digests:
        first.failures.append("pass 0 outputs differ between untraced, traced and repeated runs")
    if again.counters != first.counters:
        first.failures.append(f"counters did not repeat: {first.counters} then {again.counters}")
    first.failures += pinned_mismatch(workload, seed, first, traced=True)
    problems = [f for p in passes for f in p.failures]

    rounds = sum(p.rounds for p in passes)
    if not rounds:
        raise BenchError(f"no run succeeded: {problems[:3]}")

    def us_per_round(*names, parent=None):
        return sum(total(passes, n, parent) for n in names) / rounds * 1e6

    def per_call(name, scale):
        calls = total(passes, name, column=2)
        return total(passes, name) / calls * scale if calls else 0.0

    program = sum(total(passes, n, "pass") for n in ("cli.run_one", "cli.write_rows",
                                                     "analysis.analyze"))
    c = first.counters
    metrics = {
        "core.feedback_buffer_us_per_round": (
            us_per_round("core.observe_aggregate", "core.push_split"), "us"),
        "core.validate_split_us_per_round": (us_per_round("core.validate_split"), "us"),
        "core.engine_self_us_per_round": (
            total(passes, "core.run_game", column=1) / rounds * 1e6, "us"),
        "core.transcript_bytes_per_round": (first.transcript_bytes / first.transcript_rounds, "B"),
        "core.regret_us_per_round": (us_per_round("core.policy_regret"), "us"),
        "core.replay_loss_calls_per_round": (c["replay_loss_calls"] / c["rounds"], "count"),
        "core.clamped_components": (c["clamped_components"], "count"),
        "learners.act_us_per_round": (us_per_round("learners.act", parent="core.run_game"), "us"),
        "learners.observe_us_per_round": (
            us_per_round("learners.observe", parent="core.run_game"), "us"),
        "learners.inner_updates": (c["inner_updates"], "count"),
        "learners.clipped_batches": (c["clipped_batches"], "count"),
        "adversaries.loss_us_per_round": (
            us_per_round("adversaries.loss", parent="core.run_game"), "us"),
        "adversaries.split_us_per_round": (
            us_per_round("adversaries.split", parent="core.run_game"), "us"),
        "adversaries.state_switches": (c["state_switches"], "count"),
        "adversaries.walk_materialize_ms": (per_call("adversaries.walk_materialize", 1e3), "ms"),
        "adversaries.table_build_ms": (per_call("adversaries.table_build", 1e3), "ms"),
        "cli.build_run_ms": (per_call("cli._build_run", 1e3), "ms"),
        "seeding.substream_us": (per_call("seeding.substream", 1e6), "us"),
        "cli.write_rows_ms": (per_call("cli.write_rows", 1e3), "ms"),
        "analysis.analyze_ms": (per_call("analysis.analyze", 1e3), "ms"),
        # run_one's own time lies outside every layer span
        "trace.unexplained_share": (total(passes, "cli.run_one", column=1) / program, "ratio"),
        "trace.overhead_share": (
            rounds_per_s(workload, [plain]) / rounds_per_s(workload, passes) - 1.0, "ratio"),
    }
    attempted = sum(p.attempted for p in passes)
    failed = min(len(problems), attempted)
    detail.update(
        passes=len(passes), calibration=[{"c_in_s": p.c_in, "c_out_s": p.c_out} for p in passes],
        counters_pass0=c, problems=problems[:20],
    )
    return metrics, attempted, failed, problems, passes


def write_trace(workload: str, seed: int, detail: dict, passes) -> None:
    OUT.mkdir(exist_ok=True)
    payload = {
        "detail": detail,
        "passes": [
            {
                "index": p.index,
                "layers": [{"parent": k[0], "name": k[1], "net_s": v[0], "self_s": v[1],
                            "count": v[2]} for k, v in sorted(p.summary.items())],
                "spans": [{"name": n, "start": s, "end": e, "parent": par}
                          for n, s, e, par in p.records],
            }
            for p in passes
        ],
    }
    with open(OUT / f"trace-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


# ---------------------------------------------------------------------------
# pinned outputs and environment


def pinned_mismatch(workload: str, seed: int, first: PassResult, traced: bool) -> list:
    if seed != DEFAULT_SEED:
        return []
    pinned = json.loads(EXPECTED.read_text(encoding="utf-8"))["workloads"][workload]
    problems = []
    if first.digests != pinned["digests"]:
        problems.append(f"pass 0 digests {first.digests} differ from pinned {pinned['digests']}")
    if traced and first.counters != pinned["counters"]:
        problems.append(f"pass 0 counters {first.counters} differ from pinned {pinned['counters']}")
    return problems


def pin() -> None:
    from spans import Tracer

    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        res = run_pass(workload, DEFAULT_SEED, 0, Tracer())
        if res.failures:
            raise BenchError(f"{workload}: {res.failures[:3]}")
        out["workloads"][workload] = {"digests": res.digests, "counters": res.counters}
    EXPECTED.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src = hashlib.sha256()
    for path in sorted((SRC / "delaybandits").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
    }


def git_sha() -> str:
    """HEAD of the checkout read from ``.git`` without running git; a
    checkout exported without history has none."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="time one set-up in this process and print it (internal)")
    p.add_argument("--pin", action="store_true",
                   help="rewrite expected.json from pass 0 at the default seed")
    args = p.parse_args(argv)
    deadline = perf_counter() + args.seconds
    if not args.pin and args.workload is None:
        p.error("--workload is required")
    try:
        if args.probe_setup:
            print(json.dumps(probe_setup(args.workload, args.seed)))
            return 0
        import_package()
        if args.pin:
            pin()
            return 0
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "cpu": cpu,
                  "environment": environment(), "loadavg_before": os.getloadavg()}
        run = traced if args.trace else end_to_end
        metrics, attempted, failed, problems, passes = run(
            args.workload, args.seed, deadline, detail)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    detail["loadavg_after"] = os.getloadavg()
    if args.trace:
        write_trace(args.workload, args.seed, detail, passes)
    print(json.dumps({"detail": detail}))
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
