"""The conformance harness: generator guarantees, runner verdicts,
minimization and seed artifacts.

The hypothesis property drives the generator through shrinkable
``st.randoms(use_true_random=False)`` instances, so a failing example
shrinks to a small random stream rather than an opaque seed.
"""

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.testing.conformance import (
    ConformanceOutcome,
    minimize_case,
    replay_artifact,
    run_conformance,
    run_one,
    write_artifact,
)
from repro.testing.generator import GeneratorConfig, generate_program
from repro.vadalog import Program
from repro.vadalog.negation import check_negation_safety
from repro.vadalog.wardedness import check_wardedness

import random


class TestGenerator:
    def test_programs_are_warded_and_stratifiable(self):
        config = GeneratorConfig()
        for seed in range(120):
            program = generate_program(random.Random(seed), config)
            check_wardedness(program.rules)  # raises on violation
            check_negation_safety(program.rules)

    def test_fact_and_rule_budgets(self):
        config = GeneratorConfig()
        for seed in range(60):
            program = generate_program(random.Random(seed), config)
            assert (
                config.min_facts
                <= len(program.facts)
                <= config.max_facts
            )
            assert len(program.rules) >= 1
            assert all(fact.is_ground for fact in program.facts)

    def test_generation_is_deterministic_in_the_seed(self):
        config = GeneratorConfig()
        first = generate_program(random.Random(42), config)
        second = generate_program(random.Random(42), config)
        assert first.to_source() == second.to_source()

    def test_config_roundtrips_through_dict(self):
        config = GeneratorConfig(p_negation=0.5, max_rules=9)
        restored = GeneratorConfig.from_dict(config.to_dict())
        assert restored == config


class TestRunOne:
    def test_fixed_seed_batch_has_no_disagreements(self):
        report = run_conformance(base_seed=77000, examples=40)
        assert report.executed == 40
        assert report.disagreements == []
        # The batch must actually exercise both engines, not just skip.
        agreed = sum(
            report.counts.get(status, 0)
            for status in ConformanceOutcome.AGREEMENT_STATUSES
        )
        assert agreed >= 35

    @given(rng=st.randoms(use_true_random=False))
    def test_generated_pair_agrees(self, rng):
        program = generate_program(rng, GeneratorConfig())
        outcome = run_one(program)
        assert not outcome.is_disagreement, outcome.detail

    @given(rng=st.randoms(use_true_random=False))
    def test_generated_pair_agrees_under_isomorphic_termination(self, rng):
        program = generate_program(rng, GeneratorConfig())
        outcome = run_one(program, termination="isomorphic")
        assert not outcome.is_disagreement, outcome.detail

    def test_disagreement_classification(self):
        # Artificial "oracle" check via statuses: an unknown status is a
        # disagreement, every agreement/skip status is not.
        for status in ConformanceOutcome.AGREEMENT_STATUSES:
            assert not ConformanceOutcome(status).is_disagreement
        for status in ConformanceOutcome.SKIP_STATUSES:
            assert not ConformanceOutcome(status).is_disagreement
        assert ConformanceOutcome("disagree").is_disagreement

    def test_engine_vs_oracle_disagreement_is_caught(self):
        # Sabotage the engine run to prove run_one actually compares
        # the engine against the oracle.
        from repro.testing import conformance as mod
        from repro.vadalog.atoms import Atom

        program = generate_program(random.Random(9), GeneratorConfig())
        real = mod._run_engine

        def crooked(*args, **kwargs):
            run = real(*args, **kwargs)
            if run.kind == "ok":
                run.facts = run.facts | {Atom.of("smuggled", 1)}
            return run

        mod._run_engine = crooked
        try:
            outcome = run_one(program)
        finally:
            mod._run_engine = real
        assert outcome.is_disagreement
        assert "engine" in outcome.detail


class TestMinimization:
    def test_minimize_keeps_failure_and_shrinks(self):
        program = generate_program(random.Random(3), GeneratorConfig())

        # A synthetic failure predicate: "program still derives
        # something beyond its facts" — monotone enough to shrink.
        # preflight=False: generated programs carry sensitivity seeding
        # and may trip VDL070 by design, which is not this failure.
        def still_failing(candidate):
            result = candidate.run(provenance=False, preflight=False)
            return len(set(result.facts())) > len(candidate.facts)

        if not still_failing(program):  # pragma: no cover — seed-stable
            return
        minimized = minimize_case(program, still_failing)
        assert still_failing(minimized)
        assert len(minimized.rules) + len(minimized.facts) <= len(
            program.rules
        ) + len(program.facts)


class TestArtifacts:
    def test_artifact_roundtrip(self, tmp_path):
        config = GeneratorConfig()
        seed = 77001
        program = generate_program(random.Random(seed), config)
        outcome = run_one(program)
        outcome.seed = seed
        path = write_artifact(
            str(tmp_path),
            seed,
            77000,
            config,
            outcome,
            program,
            minimized=None,
            max_rounds=400,
            max_facts=4000,
            termination="restricted",
        )
        payload = json.loads(open(path).read())
        assert payload["seed"] == seed
        assert "--replay" in payload["replay"]
        # Replaying reproduces the same verdict from the artifact alone.
        replayed = replay_artifact(path)
        assert replayed.status == outcome.status

    def test_replay_prefers_minimized_program(self, tmp_path):
        # Hand-craft an artifact whose full program disagrees with its
        # minimized program; replay must use the minimized one.
        path = tmp_path / "artifact.json"
        payload = {
            "seed": 1,
            "base_seed": 1,
            "config": GeneratorConfig().to_dict(),
            "max_rounds": 100,
            "max_facts": 1000,
            "termination": "restricted",
            "status": "equal",
            "detail": "",
            "program": 'e(1).\np(X) :- e(X).\nq(X) :- p(X).',
            "minimized_program": "e(1).\np(X) :- e(X).",
            "replay": "",
        }
        path.write_text(json.dumps(payload))
        outcome = replay_artifact(str(path))
        assert outcome.status == "equal"

    def test_replay_ignores_stale_parallelism_key(self, tmp_path):
        # Artifacts written while the harness had a parallel lane carry
        # a "parallelism" key; replay ignores it and runs the one
        # serial engine, agreeing with run_one on the same program.
        config = GeneratorConfig()
        program = generate_program(random.Random(78001), config)
        expected = run_one(program)
        expected.seed = 78001
        path = write_artifact(
            str(tmp_path), 78001, 78000, config, expected, program,
            minimized=None, max_rounds=400, max_facts=4000,
            termination="restricted",
        )
        payload = json.loads(open(path).read())
        assert "parallelism" not in payload
        payload["parallelism"] = "both"
        with open(path, "w") as handle:
            json.dump(payload, handle)
        replayed = replay_artifact(path)
        assert replayed.status == expected.status
        assert replayed.detail == expected.detail
        assert replayed.flow_checked == expected.flow_checked

    def test_replay_ignores_stale_engine_variant_key(self, tmp_path):
        # Artifacts written while the engine had switchable paths carry
        # "engine_variant" and "backend" keys; replay ignores them.
        config = GeneratorConfig()
        program = generate_program(random.Random(77001), config)
        expected = run_one(program)
        path = write_artifact(
            str(tmp_path), 77001, 77000, config, expected, program,
            minimized=None, max_rounds=400, max_facts=4000,
            termination="restricted",
        )
        payload = json.loads(open(path).read())
        assert "engine_variant" not in payload
        assert "backend" not in payload
        payload["engine_variant"] = "both"
        payload["backend"] = "dict"
        with open(path, "w") as handle:
            json.dump(payload, handle)
        replayed = replay_artifact(path)
        assert replayed.status == expected.status
        assert replayed.detail == expected.detail


def test_program_roundtrips_through_renderer():
    # The artifact format embeds rendered source; parsing it back must
    # yield the same evaluation result.
    config = GeneratorConfig()
    for seed in range(40):
        program = generate_program(random.Random(seed), config)
        reparsed = Program.parse(program.to_source())
        assert run_one(reparsed).status == run_one(program).status


class TestSmokeScript:
    """``benchmarks/smoke_conformance.py`` argument handling."""

    def test_extra_argument_exits_with_usage(self, monkeypatch, capsys):
        import importlib.util
        import sys
        from pathlib import Path

        script = (
            Path(__file__).resolve().parents[2]
            / "benchmarks" / "smoke_conformance.py"
        )
        # The script puts its own directory on sys.path at import.
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location(
            "smoke_conformance", script
        )
        smoke = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(smoke)

        def no_run(**kwargs):  # pragma: no cover - the guard must hold
            raise AssertionError("a stale argument still ran the smoke")

        monkeypatch.setattr(smoke, "run_conformance", no_run)
        monkeypatch.setattr(
            sys, "argv", [str(script), "500", "both"]
        )
        assert smoke.main() == 2
        assert smoke.USAGE in capsys.readouterr().err
