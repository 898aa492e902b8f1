"""The names the benchmark's tracer patches and reads from outside the
package.

``bench/spans.py`` swaps module functions of ``delaybandits`` for timed
wrappers by name and reads the walk and the mini-batch wrapper's state.  A
refactor that renames one of them, or calls one through an alias the
patch cannot reach, still passes every unit test; this one runs the
benchmark's own instrumentation on each workload pairing and fails
instead.
"""

import importlib.util
from pathlib import Path

import util
from delaybandits import adversaries as adv
from delaybandits import cli, core
from delaybandits import learners as lrn

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

#: the pairings of the benchmark's three workloads, at a small horizon
PAIRINGS = (
    dict(adversary="gapwalk", delay="statemachine", learner="wrapper-exp3"),
    dict(adversary="paritytrap", delay="parity", learner="exp3", memory_bound=1),
    dict(adversary="iid", delay="lastslot", learner="wrapper-exp3", delay_span=32),
)

#: spans that only appear if every patched or read name is still reached
REQUIRED_SPANS = {
    "core.validate_split", "core.observe_aggregate", "core.push_split",
    "adversaries.split", "adversaries.walk_materialize", "core.policy_regret",
    "learners.inner_observe",
}


def load_spans():
    spec = importlib.util.spec_from_file_location("_delaybandits_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def span_names(node) -> set:
    names, todo = set(), list(node.kids.values())
    while todo:
        n = todo.pop()
        names.add(n.name)
        todo.extend(n.kids.values())
    return names


def test_bench_tracer_reaches_every_patched_name():
    spans = load_spans()
    originals = (core.run_game, core.validate_split, cli._build_run)
    horizon = 64
    tracer = spans.Tracer()
    with spans.instrument(tracer) as cap:
        for fields in PAIRINGS:
            spec = cli.ExperimentSpec(horizons=(horizon,), **fields)
            row = cli.run_one(spec, horizon, 0)
            # the capture holds this run: what was built and what was played
            assert row["tau"] == cap.built[4]
            assert len(cap.transcript.actions) == horizon
            assert cap.transcript.delay_span == row["d"] == cap.built[3].delay_span
            assert cap.transcript.realized_total == row["realized_total"]
        # run_game accepts every split of the pairings above itself; a
        # clamped split every third round goes to the patched helpers
        core.run_game(core.GameConfig(horizon, core.Discrete(2)),
                      lrn.ScriptedLearner([0] * horizon), adv.ConstantLoss(0.5),
                      util.ClampedLastSlotDelay(32))
    assert REQUIRED_SPANS <= span_names(tracer.root)
    restored = (core.run_game, core.validate_split, cli._build_run)
    assert all(now is was for now, was in zip(restored, originals))


def test_bench_regret_makes_no_loss_calls_through_the_tracer_proxy():
    # the tracer hands policy_regret a forwarding proxy: every pairing, the
    # memory-1 parity trap included, must still find ``arm_totals`` through
    # it and make no loss call
    spans = load_spans()
    horizon = 64
    for fields in PAIRINGS:
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            cli.run_one(cli.ExperimentSpec(horizons=(horizon,), **fields), horizon, 0)
        calls = tracer.summary().get(("core.policy_regret", "adversaries.loss"), [0, 0, 0])[2]
        assert calls == 0, fields
