"""Fault-model diversity: burst / stuck-at / exhaustive / temporal injectors,
ECC-aware protection, and the selective-hardening engine.

Three layers of lockdown:

* **kernel level** — a Hypothesis property pins the fused burst kernel to
  the bitstring-level composition of adjacent single-bit flips, across
  every format family and at the width edges (sign bit, top exponent bit,
  wraparound refused), scalar and vectorized;
* **campaign level** — SingleBit stays byte-identical to the pre-fault-model
  engine (plans, record schema, journal fingerprint), non-default models
  stamp their records, journals refuse resume under a different
  model/protection and skip-with-a-count records from the future, and the
  SECDED gate holds (protected SDC never above unprotected on one seed);
* **executor level** — the differential harness (tests/differential.py)
  proves burst-2, stuck-at, temporal and exhaustive campaigns bit-identical
  across serial / 2-worker / fault-batched / interrupt-resumed execution.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import wilson_interval
from repro.core import (
    BURST_LENGTHS,
    Burst,
    EXHAUSTIVE_SITE_CAP,
    Exhaustive,
    GoldenEye,
    SingleBit,
    StuckAt,
    Temporal,
    build_hardening_report,
    layer_geometry,
    parse_fault_model,
    parse_protection,
    render_hardening_report,
    run_campaign,
    validate_hardening_report,
)
from repro.core.campaign import CampaignSpec, _compose_temporal, \
    sample_layer_plans
from repro.exec.journal import JournalMismatch, load_journal
from repro.formats.bfp import BlockFloatingPoint
from repro.formats.bitstring import bits_to_float32, flip_bit, float32_to_bits
from repro.formats.registry import make_format
from repro.formats.vectorized import flip_value, flip_values
from repro.models import simple_mlp
from tests.differential import run_mode

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="requires the fork start method")

SEED = 21
INJECTIONS = 4


def _make_data(n=4):
    rng = np.random.default_rng(77)
    return (rng.standard_normal((n, 3, 32, 32)).astype(np.float32),
            rng.integers(0, 4, size=n))


# ----------------------------------------------------------------------
# spec parsing
# ----------------------------------------------------------------------
ROUND_TRIP_SPECS = ("single", "burst2", "burst4", "burst2:stride2",
                    "burst4:stride2:align2", "stuck0", "stuck1",
                    "exhaustive", "temporal3")


class TestParsing:
    @pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
    def test_spec_round_trips(self, spec):
        assert parse_fault_model(spec).spec() == spec

    def test_none_and_instances_pass_through(self):
        assert parse_fault_model(None) == SingleBit()
        model = Burst(length=4, stride=2)
        assert parse_fault_model(model) is model

    @pytest.mark.parametrize("bad", ("burst3", "burst2:stride0", "stuck2",
                                     "temporal0", "temporalx", "bogus", ""))
    def test_invalid_specs_raise_naming_valid_values(self, bad):
        with pytest.raises(ValueError, match="fault model"):
            parse_fault_model(bad)

    def test_unknown_spec_error_lists_the_valid_models(self):
        with pytest.raises(ValueError, match="single, burst2"):
            parse_fault_model("rowhammer")

    @pytest.mark.parametrize("ctor", (lambda: Burst(length=3),
                                      lambda: Burst(stride=0),
                                      lambda: StuckAt(value=2),
                                      lambda: Temporal(persist=0)))
    def test_invalid_constructions_raise(self, ctor):
        with pytest.raises(ValueError):
            ctor()

    def test_stuck_at_sets_its_mask_op(self):
        assert StuckAt(value=1).op == "set"
        assert StuckAt(value=0).op == "clear"
        assert SingleBit().op == "xor"

    def test_bad_protection_raises_naming_valid_values(self):
        with pytest.raises(ValueError, match="secded"):
            parse_protection("hamming")


# ----------------------------------------------------------------------
# kernel level: burst == composed adjacent single-bit flips (Hypothesis)
# ----------------------------------------------------------------------
#: one spec per format family, plus the raw FP32 fabric (fmt=None)
FAMILY_SPECS = ("fp32-fabric", "fp16", "int8", "bfp_e5m5_b16", "afp_e5m2",
                "fxp_1_15_16")


def _family(spec):
    if spec == "fp32-fabric":
        return None
    fmt = make_format(spec)
    # metadata formats (INT scale, BFP shared exponents, AFP bias) need a
    # calibration pass before scalar encode/decode works
    fmt.real_to_format_tensor(np.linspace(-64, 64, 129, dtype=np.float32))
    return fmt


def _composed_flip(fmt, value, bits):
    """Bitstring-level composition: encode once, flip bit-by-bit, decode."""
    if fmt is None:
        word = float32_to_bits(value)
        for b in bits:
            word = flip_bit(word, b)
        return bits_to_float32(word)
    if isinstance(fmt, BlockFloatingPoint):
        word = fmt.real_to_format(value, block=0)
        for b in bits:
            word = flip_bit(word, b)
        return fmt.format_to_real(word, block=0)
    word = fmt.real_to_format(value)
    for b in bits:
        word = flip_bit(word, b)
    return fmt.format_to_real(word)


def _same_float(a, b) -> bool:
    a, b = np.float32(a), np.float32(b)
    return bool(a == b or (np.isnan(a) and np.isnan(b)))


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(FAMILY_SPECS),
       length=st.sampled_from(BURST_LENGTHS),
       stride=st.integers(min_value=1, max_value=3),
       start_frac=st.floats(min_value=0.0, max_value=1.0),
       value=st.floats(min_value=-64.0, max_value=64.0,
                       allow_nan=False, width=32))
def test_burst_equals_composed_single_flips(spec, length, stride, start_frac,
                                            value):
    """Property: for ANY format family, burst start and value, the fused
    Burst(k) kernel is bit-identical to composing its k single-bit XOR
    flips at the bitstring level — scalar and vectorized."""
    fmt = _family(spec)
    width = 32 if fmt is None else fmt.bit_width
    burst = Burst(length=length, stride=stride)
    starts = burst.valid_starts(width)
    if not len(starts):
        # wraparound refused, never wrapped: the sampler errors out
        with pytest.raises(ValueError, match="wraparound is refused"):
            burst.sample_bits(np.random.default_rng(0), width)
        return
    start = starts[min(int(start_frac * len(starts)), len(starts) - 1)]
    bits = burst.bits_at(start, width)
    assert len(bits) == length and all(b < width for b in bits)
    want = _composed_flip(fmt, value, bits)
    got = flip_value(fmt, value, bits)
    assert _same_float(got, want), (spec, bits, value, got, want)
    # vectorized parity: the fused array kernel agrees element-for-element
    arr = np.full(3, value, dtype=np.float32)
    blocks = (np.zeros(3, dtype=np.int64)
              if isinstance(fmt, BlockFloatingPoint) else None)
    out = flip_values(fmt, arr, bits, blocks=blocks)
    assert all(_same_float(x, want) for x in out), (spec, bits, value)


class TestBurstEdges:
    def test_sign_bit_burst(self):
        """start=0 covers the sign bit: burst2 on fp16 +1.0 flips sign and
        top exponent bit together."""
        fmt = _family("fp16")
        got = flip_value(fmt, 1.0, Burst(length=2).bits_at(0, 16))
        assert _same_float(got, _composed_flip(fmt, 1.0, (0, 1)))
        assert got < 0  # the sign bit really flipped

    def test_top_exponent_edge(self):
        """The last valid start pins the burst against the LSB edge."""
        fmt = _family("int8")
        burst = Burst(length=4)
        start = max(burst.valid_starts(8))
        bits = burst.bits_at(start, 8)
        assert bits[-1] == 7  # flush against the word edge, no wrap
        got = flip_value(fmt, 3.0, bits)
        assert _same_float(got, _composed_flip(fmt, 3.0, bits))

    def test_wraparound_refused(self):
        with pytest.raises(ValueError, match="wraparound"):
            Burst(length=2).bits_at(15, 16)
        with pytest.raises(ValueError, match="wraparound"):
            Burst(length=4, stride=8).sample_bits(
                np.random.default_rng(0), 8)

    def test_alignment_constrains_starts(self):
        starts = Burst(length=2, start_align=4).valid_starts(16)
        assert list(starts) == [0, 4, 8, 12]


class TestStuckAtSemantics:
    def test_stuck_forces_the_bit(self):
        fmt = _family("fp16")
        # sign of +1.0 is 0: stuck-at-0 is a no-op, stuck-at-1 negates
        assert flip_value(fmt, 1.0, (0,), op="clear") == 1.0
        assert flip_value(fmt, 1.0, (0,), op="set") == -1.0
        # sign of -1.0 is 1: the mirror image
        assert flip_value(fmt, -1.0, (0,), op="set") == -1.0
        assert flip_value(fmt, -1.0, (0,), op="clear") == 1.0

    def test_stuck_is_idempotent_unlike_xor(self):
        fmt = _family("int8")
        for op in ("set", "clear"):
            once = flip_value(fmt, 5.0, (4,), op=op)
            assert flip_value(fmt, once, (4,), op=op) == once
        flipped = flip_value(fmt, 5.0, (4,))
        assert flip_value(fmt, flipped, (4,)) == np.float32(
            fmt.format_to_real(fmt.real_to_format(5.0)))

    def test_vectorized_stuck_matches_scalar(self):
        fmt = _family("int8")
        values = np.linspace(-3, 3, 7, dtype=np.float32)
        for op in ("set", "clear"):
            out = flip_values(fmt, values, (2,), op=op)
            want = [flip_value(fmt, float(v), (2,), op=op) for v in values]
            assert all(_same_float(a, b) for a, b in zip(out, want))


def test_temporal_composition_restores_golden_tail():
    rng = np.random.default_rng(3)
    golden = rng.standard_normal((4, 3)).astype(np.float32)
    faulty = rng.standard_normal((4, 3)).astype(np.float32)
    composed = _compose_temporal(faulty, golden, 2)
    np.testing.assert_array_equal(composed[:2], faulty[:2])
    np.testing.assert_array_equal(composed[2:], golden[2:])
    # persist=0 (whole-evaluation) and persist>=batch leave the fault alone
    assert _compose_temporal(faulty, golden, 0) is faulty
    np.testing.assert_array_equal(_compose_temporal(faulty, golden, 9), faulty)


# ----------------------------------------------------------------------
# campaign level
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def campaigns(tmp_path_factory):
    """One model + data, campaigns under several models/protections, plus
    the default run's journal — computed once for the whole module."""
    model = simple_mlp(num_classes=4)
    model.eval()
    data = _make_data()
    tmp = tmp_path_factory.mktemp("faultmodel-campaigns")
    out = {"model": model, "data": data,
           "journal": str(tmp / "single.journal.jsonl"),
           "burst_journal": str(tmp / "burst.journal.jsonl")}
    with GoldenEye(model, "fp16") as ge:
        common = dict(kind="value", location="neuron",
                      injections_per_layer=6, seed=5)
        out["single"] = run_campaign(ge, *data, journal=out["journal"],
                                     **common)
        out["secded"] = run_campaign(ge, *data, protect="secded", **common)
        out["burst2"] = run_campaign(ge, *data, fault_model="burst2",
                                     journal=out["burst_journal"], **common)
        out["stuck0"] = run_campaign(ge, *data, fault_model="stuck0",
                                     **common)
        out["geometry"] = layer_geometry(ge, "neuron")
    return out


class TestSingleBitByteIdentity:
    def test_plans_identical_with_and_without_the_model(self, campaigns):
        model = campaigns["model"]
        with GoldenEye(model, "fp16") as ge:
            layer = ge.layer_names()[0]
            a = sample_layer_plans(ge, layer, "value", "neuron", 5,
                                   np.random.default_rng([9, 0]))
            b = sample_layer_plans(ge, layer, "value", "neuron", 5,
                                   np.random.default_rng([9, 0]),
                                   fault_model=SingleBit())
            assert a.plans == b.plans
            assert a.site_space == b.site_space

    def test_default_journal_carries_no_fault_fields(self, campaigns):
        """The pre-PR record schema is preserved byte-for-byte: a default
        campaign's journal has the historical fingerprint (no fault/protect
        keys) and records without fault/op/persist/ecc fields."""
        header, records, corrupt, skipped = load_journal(campaigns["journal"])
        assert corrupt == 0 and skipped == 0 and records
        assert "fault" not in header["fingerprint"]
        assert "protect" not in header["fingerprint"]
        for record in records.values():
            assert not {"fault", "op", "persist", "ecc"} & set(record)

    def test_fingerprint_defaults_match_the_historical_identity(self):
        """Fingerprint bytes are pinned: journals written before the spec
        existed must still resume, and ledger ``fingerprint_sha`` values
        must stay stable."""
        data = (np.zeros((2, 3), np.float32), [0, 1])
        default = CampaignSpec(seed=5, injections_per_layer=6)
        assert default.fingerprint("fp16", ["fc1"], *data) == {
            "kind": "value", "location": "neuron", "format": "fp16",
            "seed": 5, "injections_per_layer": 6, "num_bits": 1,
            "layers": ["fc1"], "data": "55da2623a79f27c1"}
        burst = CampaignSpec(seed=5, injections_per_layer=6,
                             fault_model="burst2", protect="secded")
        assert burst.fingerprint("fp16", ["fc1"], *data) == {
            "kind": "value", "location": "neuron", "format": "fp16",
            "seed": 5, "injections_per_layer": 6, "num_bits": 1,
            "layers": ["fc1"], "fault": "burst2", "protect": "secded",
            "data": "55da2623a79f27c1"}


def _plan_digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


class TestFrozenPlans:
    """Every bit draw (value, metadata and gradient, under every fault
    model) yields the plans the engine drew before all draws went through
    a :class:`FaultModel`.  Each digest covers seeds 0-2: the ``repr`` of
    every plan list (and its retries, site space and sampling error, or
    the ``ValueError`` an exhaustive layer over the cap raises), frozen
    from the engine whose value, metadata and gradient samplers each held
    their own ``rng.choice`` draw."""

    SEEDS = (0, 1, 2)

    LAYER_PLANS = {
        # (format, kind, location, fault model, num_bits): digest
        ("fp16", "value", "neuron", "single", 1): "d26566b24784f306",
        ("fp16", "value", "neuron", "single", 2): "cabbe46e5aad10e3",
        ("fp16", "value", "neuron", "burst2:stride2", 1): "5e8f791fda60a557",
        ("fp16", "value", "neuron", "stuck1", 1): "473de27c8f166d5e",
        ("fp16", "value", "neuron", "temporal3", 1): "19e759415cb2814e",
        ("fp16", "value", "neuron", "exhaustive", 1): "1081d0ed887be0ec",
        ("fp16", "metadata", "neuron", "single", 1): "5c04c443c7055b1b",
        ("fp16", "value", "weight", "single", 1): "078c43872e78ce14",
        ("fp16", "value", "weight", "single", 2): "1722f92b4c44136d",
        ("fp16", "value", "weight", "burst2:stride2", 1): "df89543c52bca8bb",
        ("fp16", "value", "weight", "stuck1", 1): "af59d85db811ee78",
        ("fp16", "value", "weight", "temporal3", 1): "bbc6f239eb66f889",
        ("fp16", "value", "weight", "exhaustive", 1): "9b548a2ae3c3a580",
        ("fp16", "metadata", "weight", "single", 1): "5c04c443c7055b1b",
        ("int8", "value", "neuron", "single", 1): "e78f15e7c7f27d4d",
        ("int8", "value", "neuron", "single", 2): "986d0e65b90e4416",
        ("int8", "value", "neuron", "burst2:stride2", 1): "d7648cf7cc745a95",
        ("int8", "value", "neuron", "stuck1", 1): "df4ac0ca908d7ac6",
        ("int8", "value", "neuron", "temporal3", 1): "16c3b7fbbe390352",
        ("int8", "value", "neuron", "exhaustive", 1): "7e01ddd3a606ef85",
        ("int8", "metadata", "neuron", "single", 1): "0892d019dfa92005",
        ("int8", "value", "weight", "single", 1): "89477617c5c3526c",
        ("int8", "value", "weight", "single", 2): "bbc529126fa1ebb5",
        ("int8", "value", "weight", "burst2:stride2", 1): "84f30d8e75317931",
        ("int8", "value", "weight", "stuck1", 1): "da5406c04a5a6365",
        ("int8", "value", "weight", "temporal3", 1): "5a488facb74b235c",
        ("int8", "value", "weight", "exhaustive", 1): "f38e544425da44b9",
        ("int8", "metadata", "weight", "single", 1): "edcd417af9c1cf35",
        ("bfp_e5m5_b16", "value", "neuron", "single", 1): "1e57c0b23e671eb8",
        ("bfp_e5m5_b16", "value", "neuron", "single", 2): "1c13c55193b9a7e1",
        ("bfp_e5m5_b16", "value", "neuron", "burst2:stride2", 1):
            "a04070be8d1f01b6",
        ("bfp_e5m5_b16", "value", "neuron", "stuck1", 1): "7a5916f1cb9cd557",
        ("bfp_e5m5_b16", "value", "neuron", "temporal3", 1):
            "698183577ce239df",
        ("bfp_e5m5_b16", "value", "neuron", "exhaustive", 1):
            "20a52fe00b943459",
        ("bfp_e5m5_b16", "metadata", "neuron", "single", 1):
            "64338d891639443a",
        ("bfp_e5m5_b16", "value", "weight", "single", 1): "65ccf7f909a43c20",
        ("bfp_e5m5_b16", "value", "weight", "single", 2): "a08fb2f59cf2838b",
        ("bfp_e5m5_b16", "value", "weight", "burst2:stride2", 1):
            "e1c6066a1c39ddf9",
        ("bfp_e5m5_b16", "value", "weight", "stuck1", 1): "a6437e13711def4b",
        ("bfp_e5m5_b16", "value", "weight", "temporal3", 1):
            "69a50a9c7a2ccc03",
        ("bfp_e5m5_b16", "value", "weight", "exhaustive", 1):
            "7998ef01f2293e55",
        ("bfp_e5m5_b16", "metadata", "weight", "single", 1):
            "f8d58dc5c1a8d30b",
    }

    ENGINE_DRAWS = {
        # (format, location): sample_value_injection and
        # sample_metadata_injection on a random layer
        ("fp16", "neuron"): "d50f8a751b8ac090",
        ("fp16", "weight"): "59561105de631c76",
        ("int8", "neuron"): "df80ffdf2d1842b1",
        ("int8", "weight"): "518f087a813998cd",
        ("bfp_e5m5_b16", "neuron"): "59341d0b0f817ef8",
        ("bfp_e5m5_b16", "weight"): "93590ca278d5f921",
    }

    GRADIENT_DRAWS = {
        None: "9c9a3ed31ca61973",
        "fp16": "19fe83911918425b",
        "int8": "274e29a92571e0c1",
        "bfp_e5m5_b16": "6568ad52efa19a96",
    }

    @pytest.fixture(scope="class")
    def platforms(self):
        from repro.core.campaign import golden_inference
        from repro.models import simple_cnn

        out = {}
        for spec in ("fp16", "int8", "bfp_e5m5_b16"):
            ge = GoldenEye(simple_cnn(num_classes=4, image_size=8, seed=0),
                           spec).attach()
            x = np.random.default_rng(5).standard_normal(
                (3, 3, 8, 8)).astype(np.float32)
            golden_inference(ge, x, np.array([0, 1, 2]))
            out[spec] = ge
        yield out
        for ge in out.values():
            ge.detach()

    @pytest.mark.parametrize("key", sorted(LAYER_PLANS))
    def test_layer_plans(self, platforms, key):
        spec, kind, location, model, num_bits = key
        ge = platforms[spec]
        # the classic draw is the default: called without a model
        kwargs = ({} if model == "single"
                  else {"fault_model": parse_fault_model(model)})
        lines = []
        for seed in self.SEEDS:
            for i, layer in enumerate(ge.layer_names()):
                rng = np.random.default_rng([seed, i])
                try:
                    plan = sample_layer_plans(ge, layer, kind, location, 6,
                                              rng, num_bits, **kwargs)
                except ValueError as exc:
                    lines.append(f"ValueError {exc}")
                    continue
                lines.append(f"{plan.plans!r} {plan.retries} "
                             f"{plan.site_space} {plan.sampling_error}")
        assert _plan_digest(lines) == self.LAYER_PLANS[key]

    @pytest.mark.parametrize("key", sorted(ENGINE_DRAWS))
    def test_engine_draws(self, platforms, key):
        from repro.core import InjectionError

        spec, location = key
        engine = platforms[spec].injector
        lines = []
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            lines += [repr(engine.sample_value_injection(rng,
                                                         location=location))
                      for _ in range(4)]
            for _ in range(2):
                try:
                    lines.append(repr(engine.sample_metadata_injection(
                        rng, location=location, num_bits=2)))
                except InjectionError as exc:
                    lines.append(f"InjectionError {exc}")
        assert _plan_digest(lines) == self.ENGINE_DRAWS[key]

    @pytest.mark.parametrize("spec", list(GRADIENT_DRAWS), ids=str)
    def test_gradient_draws(self, spec):
        from repro.core import GradientInjector
        from repro.models import simple_cnn

        injector = GradientInjector(
            simple_cnn(num_classes=4, image_size=8, seed=0), spec)
        lines = []
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            lines += [repr(injector.sample(rng)) for _ in range(6)]
            lines += [repr(injector.sample(rng, num_bits=2)) for _ in range(3)]
        assert _plan_digest(lines) == self.GRADIENT_DRAWS[spec]


class TestNonDefaultCampaigns:
    def test_burst_records_are_stamped_and_two_bit(self, campaigns):
        _, records, _, _ = load_journal(campaigns["burst_journal"])
        assert records
        for record in records.values():
            assert record["fault"] == "burst2"
            bits = record["bits"]
            assert len(bits) == 2 and bits[1] == bits[0] + 1

    def test_by_pattern_groups_fill_for_every_model(self, campaigns):
        for name, length in (("single", 1), ("burst2", 2), ("stuck0", 1)):
            for result in campaigns[name].per_layer.values():
                group = result.by_pattern[f"len{length}"]
                assert group["injections"] == result.injections

    def test_metadata_campaigns_refuse_non_single_models(self, campaigns):
        with GoldenEye(campaigns["model"], "bfp_e5m5_b16") as ge:
            with pytest.raises(ValueError, match="value injections only"):
                run_campaign(ge, *campaigns["data"], kind="metadata",
                             fault_model="burst2", injections_per_layer=2)


class TestExhaustive:
    def test_enumerates_every_site_in_order(self, campaigns):
        from repro.core.campaign import golden_inference
        with GoldenEye(campaigns["model"], "fp16") as ge:
            # neuron geometry comes from the observed activation shapes
            golden_inference(ge, *campaigns["data"])
            plan = sample_layer_plans(ge, "fc3", "value", "neuron", 1,
                                      np.random.default_rng(0),
                                      fault_model=Exhaustive())
        assert [(p.flat_index, p.bits) for p in plan.plans] == [
            (i, (b,)) for i in range(4) for b in range(16)]
        assert plan.site_space == 64

    def test_oversized_layer_refused_naming_the_cap(self, campaigns):
        with GoldenEye(campaigns["model"], "fp16") as ge:
            with pytest.raises(ValueError, match=str(EXHAUSTIVE_SITE_CAP)):
                run_campaign(ge, *campaigns["data"], location="weight",
                             fault_model="exhaustive", layers=["fc1"])

    def test_sampling_through_exhaustive_is_refused(self):
        with pytest.raises(ValueError, match="enumerates"):
            Exhaustive().sample_bits(np.random.default_rng(0), 8)


class TestJournalCompatibility:
    def test_resume_under_a_different_model_raises(self, campaigns, tmp_path):
        journal = str(tmp_path / "model.journal.jsonl")
        data = campaigns["data"]
        with GoldenEye(campaigns["model"], "fp16") as ge:
            common = dict(injections_per_layer=3, seed=5, layers=["fc3"])
            run_campaign(ge, *data, journal=journal, fault_model="burst2",
                         **common)
            with pytest.raises(JournalMismatch):
                run_campaign(ge, *data, journal=journal, **common)
            with pytest.raises(JournalMismatch):
                run_campaign(ge, *data, journal=journal, fault_model="burst2",
                             protect="secded", **common)
            # the matching identity still resumes cleanly
            again = run_campaign(ge, *data, journal=journal,
                                 fault_model="burst2", **common)
        assert again.telemetry["journal_skipped"] >= 1

    def test_unknown_future_records_skipped_with_a_count(self, campaigns,
                                                        tmp_path, caplog):
        path = tmp_path / "future.journal.jsonl"
        lines = open(campaigns["journal"], encoding="utf-8").read()
        future = [
            {"type": "injection", "kind": "value", "fault": "quantum5",
             "layer": "fc3", "seq": 98, "bits": [0], "site": 0,
             "delta_loss": 0.0, "mismatch_rate": 0.0, "sdc_rate": 0.0},
            {"type": "injection", "kind": "hologram", "layer": "fc3",
             "seq": 99, "bits": [0], "site": 0, "delta_loss": 0.0,
             "mismatch_rate": 0.0, "sdc_rate": 0.0},
        ]
        path.write_text(lines + "".join(
            json.dumps(e) + "\n" for e in future), encoding="utf-8")
        with caplog.at_level("WARNING", logger="repro.exec"):
            header, records, corrupt, skipped = load_journal(path)
        assert skipped == 2 and corrupt == 0
        assert ("fc3", 98) not in records and ("fc3", 99) not in records
        assert "skipped 2 record(s)" in caplog.text
        # known-model records from the same file still fold normally
        assert any(r.get("fault") is None for r in records.values())


class TestEccProtection:
    def test_secded_gate_protected_sdc_never_above_unprotected(self,
                                                               campaigns):
        for layer, unprotected in campaigns["single"].per_layer.items():
            protected = campaigns["secded"].per_layer[layer]
            assert protected.sdc_rate <= unprotected.sdc_rate
            # SECDED corrects every single-bit fault: zero silent corruption
            assert protected.sdc_rate == 0.0
            assert protected.ecc.get("corrected") == protected.injections

    def test_protected_records_carry_the_golden_outcome(self, campaigns):
        from repro.core.campaign import execute_injection_batch, \
            golden_inference
        model, (images, labels) = campaigns["model"], campaigns["data"]
        with GoldenEye(model, "fp16") as ge:
            ge.enable_resume(None)
            ge.capture_golden(images)
            golden = golden_inference(ge, images, labels)
            plan = ge.injector.sample_value_injection(
                np.random.default_rng(0), layer="fc3")
            [record] = execute_injection_batch(
                ge, golden, images, [plan], True,
                protection=parse_protection("secded"))
        assert record["ecc"] == "corrected"
        assert record["delta_loss"] == 0.0
        assert record["sdc_rate"] == 0.0

    def test_parity_detects_odd_metadata_flips(self):
        protection = parse_protection("secded+parity")
        assert protection.classify_bits("metadata", 1) == "detected"
        assert protection.classify_bits("metadata", 2) == "silent"
        assert protection.classify_bits("value", 1) == "corrected"
        assert protection.classify_bits("value", 2) == "detected"
        assert protection.classify_bits("value", 3) == "silent"


# ----------------------------------------------------------------------
# executor level: differential parity under every new model
# ----------------------------------------------------------------------
DIFF_FAULTS = ("burst2", "stuck0", "temporal2", "exhaustive")
DIFF_MODES = ("parallel2", "serial-k4", "resumed")


def _diff_kwargs(fault):
    # exhaustive must be fenced to a small layer (fc3: 4 x 16 = 64 sites)
    layers = ["fc3"] if fault == "exhaustive" else None
    return dict(injections_per_layer=INJECTIONS, seed=SEED,
                fault_model=fault, layers=layers)


@pytest.fixture(scope="module")
def fault_baselines(tmp_path_factory):
    out = {}
    for fault in DIFF_FAULTS:
        model = simple_mlp(num_classes=4)
        model.eval()
        data = _make_data()
        serial = run_mode("serial", model, "fp16", data,
                          tmp_path_factory.mktemp(f"serial-{fault}"),
                          **_diff_kwargs(fault))
        out[fault] = (model, data, serial)
    return out


@needs_fork
@pytest.mark.parametrize("fault", DIFF_FAULTS)
@pytest.mark.parametrize("mode", DIFF_MODES)
def test_fault_model_differential_parity(fault, mode, fault_baselines,
                                         tmp_path):
    """Burst, stuck-at, temporal and exhaustive campaigns are bit-identical
    across serial / 2-worker / fault-batch-4 / interrupt-resumed runs."""
    model, data, serial = fault_baselines[fault]
    out = run_mode(mode, model, "fp16", data, tmp_path, **_diff_kwargs(fault))
    assert not out.result.quarantined and not out.result.interrupted
    assert out.stats == serial.stats
    assert out.injections == serial.injections
    if mode.startswith("resumed"):
        expected = {key: value for key, value in serial.counters.items()
                    if key[0] == "campaign.injections_total"}
    else:
        expected = serial.counters
    assert out.counters == expected


@needs_fork
def test_exhaustive_covers_the_whole_site_space(fault_baselines):
    _, _, serial = fault_baselines["exhaustive"]
    (layer, result), = serial.result.per_layer.items()
    assert layer == "fc3"
    assert result.injections == 64  # 4 outputs x 16 bits, none sampled away


def test_sampled_estimate_covers_the_exhaustive_truth(fault_baselines):
    """The sampled estimator's Wilson interval on fc3 covers the ground
    truth of the exhaustive sweep of the same layer (an exhaustive sweep
    visits every site whatever its seed)."""
    model, (images, labels), serial = fault_baselines["exhaustive"]
    with GoldenEye(model, "fp16") as ge:
        sampled = run_campaign(ge, images, labels, layers=["fc3"],
                               injections_per_layer=32, seed=3)
    truth, est = serial.result.per_layer["fc3"], sampled.per_layer["fc3"]
    assert truth.injections == 64
    lo, hi = wilson_interval(round(est.sdc_rate * est.injections),
                             est.injections)
    assert lo <= truth.sdc_rate <= hi, (lo, hi, truth.sdc_rate)


# ----------------------------------------------------------------------
# hardening policy engine
# ----------------------------------------------------------------------
class TestHardening:
    def test_report_builds_and_validates(self, campaigns):
        report = build_hardening_report(campaigns["single"],
                                        campaigns["geometry"])
        assert report["schema"] == "harden/v1"
        assert validate_hardening_report(report) is report
        ranking = report["ranking"]
        assert [e["rank"] for e in ranking] == [1, 2, 3]
        scores = [e["score"] for e in ranking]
        assert scores == sorted(scores, reverse=True)
        # single-bit faults are fully corrected by SECDED, so any layer
        # with measured SDC shows a positive reduction and gets selected
        for entry in ranking:
            assert entry["protected_sdc_rate"] == 0.0
            assert entry["selected"] == (entry["sdc_reduction"] > 0)
        rendered = render_hardening_report(report)
        assert "harden" in rendered and "reduction/bit" in rendered

    def test_estimate_matches_the_measured_protected_run(self, campaigns):
        """The replayed estimate equals what a real SECDED campaign on the
        same seed measures (verdicts are a pure function of geometry)."""
        report = build_hardening_report(campaigns["single"],
                                        campaigns["geometry"])
        for entry in report["ranking"]:
            measured = campaigns["secded"].per_layer[entry["layer"]].sdc_rate
            assert entry["protected_sdc_rate"] == measured

    def test_budget_is_respected_greedily(self, campaigns):
        unbounded = build_hardening_report(campaigns["single"],
                                           campaigns["geometry"])
        costs = {e["layer"]: e["cost_bits"] for e in unbounded["ranking"]}
        budget = max(costs.values())  # room for some but not all layers
        report = build_hardening_report(campaigns["single"],
                                        campaigns["geometry"],
                                        budget_bits=budget)
        assert report["selected_cost_bits"] <= budget
        zero = build_hardening_report(campaigns["single"],
                                      campaigns["geometry"], budget_bits=0)
        assert zero["selected"] == [] and zero["selected_cost_bits"] == 0

    def test_validator_rejects_tampered_reports(self, campaigns):
        report = build_hardening_report(campaigns["single"],
                                        campaigns["geometry"])
        tampered = json.loads(json.dumps(report))
        tampered["ranking"][0]["score"] += 1.0
        with pytest.raises(ValueError, match="score"):
            validate_hardening_report(tampered)
        tampered = json.loads(json.dumps(report))
        tampered["selected"] = ["nope"]
        with pytest.raises(ValueError, match="selected"):
            validate_hardening_report(tampered)
        with pytest.raises(ValueError, match="harden/v1"):
            validate_hardening_report({"schema": "harden/v2"})

    def test_metadata_campaigns_are_rejected(self, campaigns):
        import types
        fake = types.SimpleNamespace(kind="metadata")
        with pytest.raises(ValueError, match="value"):
            build_hardening_report(fake, campaigns["geometry"])
