"""Theorem registry: table shape, seeded trials, backend coercion."""

import hashlib
import json

import pytest

from harmonica.core import FloatBackend, GeometryError, float_backend
from harmonica.generate import (
    FORCED_THEOREMS,
    GenSpec,
    config_to_json,
    gen_hypothesis_forcing,
)
from harmonica.registry import (
    THEOREMS,
    UnknownTheorem,
    get_entry,
    run_trial,
    theorem_ids,
)

ALL_IDS = (
    "two-pencils",
    "cor2",
    "free-triangle",
    "triangle-transfer",
    "free-quad",
    "quad-equivalence",
    "crossratio",
    "pappus4",
    "desargues",
    "ceva-quad",
    "ceva-ngon",
    "menelaos-ngon",
    "duality",
    "bisectors-triangle",
    "steiner-add-11",
    "bisectors-ngon",
)

FLOAT_ONLY = ("bisectors-triangle", "steiner-add-11", "bisectors-ngon")


class TestTable:
    def test_ids_and_order(self):
        assert theorem_ids() == ALL_IDS

    def test_get_entry_round_trips(self):
        for tid in ALL_IDS:
            assert get_entry(tid).id == tid

    def test_unknown_id(self):
        with pytest.raises(UnknownTheorem, match="two-pencils"):
            get_entry("fermat")

    def test_arith_split(self):
        for tid in ALL_IDS:
            expected = "float" if tid in FLOAT_ONLY else "exact"
            assert get_entry(tid).arith == expected

    def test_gon_sized_entries_take_n(self):
        sized = {tid for tid in ALL_IDS if get_entry(tid).takes_n}
        assert sized == {"ceva-ngon", "menelaos-ngon", "duality", "bisectors-ngon"}

    @pytest.mark.parametrize("tid", ALL_IDS)
    def test_takes_n_exactly_when_the_generator_does(self, tid):
        spec = GenSpec(seed=3)
        if get_entry(tid).takes_n:
            gen_hypothesis_forcing(tid, spec, n=4)
        else:
            with pytest.raises(ValueError, match="does not take an n"):
                gen_hypothesis_forcing(tid, spec, n=4)

    def test_summaries_are_nonempty(self):
        for entry in THEOREMS.values():
            assert entry.summary.strip()


class TestTrials:
    @pytest.mark.parametrize("tid", ALL_IDS)
    def test_every_theorem_passes_three_seeds(self, tid):
        for seed in (0, 1, 2):
            passed, detail = run_trial(tid, seed)
            assert passed, (tid, seed, detail)

    @pytest.mark.parametrize("tid", ["ceva-ngon", "menelaos-ngon"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_gon_sizes(self, tid, n):
        passed, detail = run_trial(tid, 11, n=n)
        assert passed, (tid, n, detail)

    def test_bisectors_ngon_sizes(self):
        for n in (3, 4, 5, 6, 7):
            passed, detail = run_trial("bisectors-ngon", 5, n=n)
            assert passed, (n, detail)

    def test_same_seed_same_detail(self):
        first = run_trial("desargues", 99)
        second = run_trial("desargues", 99)
        assert first == second

    def test_order_parameter_reaches_the_reduction(self):
        assert run_trial("ceva-ngon", 3, n=5, order="exhaustive")[0]
        assert run_trial("ceva-ngon", 3, n=5, order=(1, 1))[0]
        assert run_trial("ceva-ngon", 3, n=5, order=("seed", 4))[0]

    def test_duality_checks_agreement_not_truth(self):
        # generic cut gons are usually not pseudo-collinear; the claim
        # is only that the dual verdict matches
        passed, detail = run_trial("duality", 12345)
        assert passed
        assert detail["pseudo_collinear"] == detail["dual_pseudo_concurrent"]

    def test_detail_shapes(self):
        _, d = run_trial("two-pencils", 1)
        assert d == {"four_points_collinear": True}
        _, d = run_trial("ceva-quad", 1)
        assert d == {"pseudo_concurrent": True, "product_one": True}
        _, d = run_trial("free-quad", 1)
        assert set(d) == {f"triple_{i}" for i in range(1, 9)}


class TestBackendCoercion:
    @pytest.mark.parametrize(
        "tid",
        [tid for tid in ALL_IDS if tid not in FLOAT_ONLY],
    )
    def test_exact_theorems_survive_float_coercion(self, tid):
        for seed in (0, 7):
            passed, detail = run_trial(tid, seed, backend="float")
            assert passed, (tid, seed, detail)

    @pytest.mark.parametrize("tid", FLOAT_ONLY)
    def test_float_only_rejects_exact(self, tid):
        with pytest.raises(ValueError, match="float backend only"):
            run_trial(tid, 0, backend="exact")

    def test_explicit_exact_matches_default(self):
        assert run_trial("crossratio", 5, backend="exact") == run_trial(
            "crossratio", 5
        )

    @pytest.mark.parametrize("tid", FLOAT_ONLY)
    def test_float_only_checks_decide_at_the_backend_passed(self, tid):
        # a tolerance far below roundoff makes each forced positive
        # fail or raise, so the check cannot be using its own
        config = gen_hypothesis_forcing(tid, GenSpec(seed=3))
        check = get_entry(tid).check
        assert check(config, float_backend(), "first")[0]
        try:
            passed, _ = check(config, FloatBackend(1e-30), "first")
        except GeometryError:
            passed = False
        assert not passed


class TestGeneratorContract:
    def test_forced_config_has_theorem_tag(self):
        config = gen_hypothesis_forcing("desargues", GenSpec(seed=4))
        assert config["theorem"] == "desargues"

    def test_registry_covers_every_forcer_id(self):
        for tid in ALL_IDS:
            gen_hypothesis_forcing(tid, GenSpec(seed=2))  # must not raise


def _trial_record(tid: str, seed: int, backend: str | None = None) -> str:
    try:
        passed, detail = run_trial(tid, seed, backend=backend)
    except GeometryError as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps([passed, config_to_json(detail)])


class TestPinnedInstances:
    def test_gen_and_trial_output_is_pinned(self):
        # sha256 over the gen JSON and the natural-arithmetic trial of
        # every forced theorem at seeds 0-49, and the float-lane trial
        # of every exact theorem at seeds 0-9, recorded on an earlier
        # commit: how the samplers and constructions compute must not
        # move a byte (CI runs it on every supported Python)
        digest = hashlib.sha256()
        for tid in FORCED_THEOREMS:
            for seed in range(50):
                config = gen_hypothesis_forcing(tid, GenSpec(seed))
                digest.update(json.dumps(config_to_json(config)).encode())
                digest.update(_trial_record(tid, seed).encode())
            if tid not in FLOAT_ONLY:
                for seed in range(10):
                    digest.update(_trial_record(tid, seed, "float").encode())
        assert digest.hexdigest() == (
            "3bddf4c21cc5d0f68b6d115bd3bbeb50c4a90a6d01611d4a869385932a48345b"
        )
