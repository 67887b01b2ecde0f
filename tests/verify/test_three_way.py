"""Three-way differential verification: model vs. event sim vs. RTL sim.

Covers the new ``backend="both"`` axis end to end: the committed corpus
(including the band-edge sentinels) replays clean through both backends,
fixed-seed generated populations keep the three-way property green, the
certified-exact subset pins cycle equality, and a deliberately broken
arbiter — non-work-conserving, half the port bandwidth wasted — is caught
by the property with the disagreeing pair recorded, then shrunk to the
same minimal counterexample on every run.
"""

import pathlib

import pytest

from repro.mapping.loop import Loop
from repro.simulator.rtl.components import PortArbiter
from repro.testing import make_mapping, private_toy_accelerator
from repro.verify import (
    Case,
    check_case,
    replay_corpus,
    sample_cases,
)
from repro.verify.generators import iter_cases
from repro.verify.properties import Tolerance, default_properties
from repro.verify.shrink import case_size, shrink_case
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"

_EPS = 1e-9


def _broken_arbitrate(self):
    """Planted bug: serve only the highest-priority requester, and waste
    half the port bandwidth — non-work-conserving on every cycle."""
    queue = [
        (engine, leg) for engine, leg in self.requesters
        if engine.remaining[leg] > _EPS
    ]
    self.contended = len(queue) >= 2
    if not queue:
        return []
    head, leg = queue[0]
    return [(head, leg, min(head.remaining[leg], self.bandwidth / 2.0))]


@pytest.fixture
def broken_arbiter(monkeypatch):
    monkeypatch.setattr(PortArbiter, "arbitrate", _broken_arbitrate)


def _private_case(case_id="private~exact"):
    """A hand-built case on the certified-exact private machine."""
    b, k, c = 8, 4, 4
    layer = dense_layer(b, k, c)
    levels = {
        Operand.W: [[Loop(LoopDim.B, b)],
                    [Loop(LoopDim.C, c), Loop(LoopDim.K, k)]],
        Operand.I: [[],
                    [Loop(LoopDim.B, b), Loop(LoopDim.C, c), Loop(LoopDim.K, k)]],
        Operand.O: [[Loop(LoopDim.B, b), Loop(LoopDim.C, c)],
                    [Loop(LoopDim.K, k)]],
    }
    mapping = make_mapping(layer, {}, levels)
    return Case(
        accelerator=private_toy_accelerator(),
        spatial=(),
        layer=layer,
        mapping=mapping,
        case_id=case_id,
    )


# --------------------------------------------------------------------------- #
# Green paths


def test_default_property_list_gates_on_backend():
    assert "three_way_agreement" in default_properties("both")
    assert "three_way_agreement" not in default_properties("event")
    assert "three_way_agreement" not in default_properties("rtl")
    with pytest.raises(ValueError):
        default_properties("verilog")


def test_corpus_replays_clean_on_both_backends():
    """The committed corpus — band-edge sentinels included — passes the
    full suite plus the three-way property on both backends."""
    cases, violations = replay_corpus(CORPUS_DIR, Tolerance(), "both")
    assert len(cases) == 3
    assert violations == []


@pytest.mark.parametrize(
    "case", sample_cases(seed=2026, count=40), ids=lambda c: c.case_id
)
def test_three_way_agreement_on_fixed_seed_cases(case):
    assert check_case(case, properties=["three_way_agreement"]) == []


@pytest.mark.slow
def test_three_way_agreement_on_large_population():
    """The CI-scale check: 200 fixed-seed cases, zero disagreements."""
    bad = []
    for case in sample_cases(seed=0, count=200):
        bad.extend(check_case(case, properties=["three_way_agreement"]))
    assert bad == [], [v.describe() for v in bad]


def test_exact_subset_is_exercised_and_clean():
    """The private machine certifies exactness and the property holds —
    i.e. the exact-equality branch of the oracle actually runs."""
    from repro.verify.properties import CaseContext

    case = _private_case()
    ctx = CaseContext(case, backend="both")
    rtl, err = ctx.rtl_simulation()
    assert err is None and rtl.exact
    assert check_case(case, backend="both") == []


# --------------------------------------------------------------------------- #
# Planted bug


def test_planted_arbiter_bug_caught_on_exact_subset(broken_arbiter):
    """On a certified-exact machine any timing perturbation must surface
    as an event/rtl disagreement — equality, not the band, is asserted."""
    violations = check_case(
        _private_case(), properties=["three_way_agreement"]
    )
    assert violations, "broken arbiter survived the exact-match oracle"
    assert {v.pair for v in violations} == {"event/rtl"}


def test_planted_arbiter_bug_caught_and_shrunk_deterministically(
    broken_arbiter,
):
    case = violations = None
    for budget, candidate in enumerate(iter_cases(0)):
        violations = check_case(
            candidate, properties=["three_way_agreement"]
        )
        if violations:
            case = candidate
            break
        if budget >= 40:
            pytest.fail("planted arbiter bug not caught within the budget")
    # The disagreeing pair is the simulator-bug escalation signal.
    assert all(v.pair == "event/rtl" for v in violations)
    assert "simulator bug" in violations[0].message

    first = shrink_case(case, ("three_way_agreement",), backend="both")
    second = shrink_case(case, ("three_way_agreement",), backend="both")
    # Deterministic: the same failing case shrinks to the same machine.
    assert first.accelerator.fingerprint() == second.accelerator.fingerprint()
    assert first.mapping.fingerprint() == second.mapping.fingerprint()
    assert case_size(first) < case_size(case)
    # Still failing, and hand-checkable.
    assert check_case(first, properties=["three_way_agreement"],
                      backend="both")
    depth = max(
        len(first.accelerator.hierarchy.levels(op)) for op in Operand
    )
    assert depth <= 2


def test_healthy_arbiter_passes_where_broken_one_fails(monkeypatch):
    """The case the planted bug trips on is clean under the real arbiter
    (sanity: the oracle detects the bug, not a latent disagreement)."""
    case = None
    with monkeypatch.context() as patched:
        patched.setattr(PortArbiter, "arbitrate", _broken_arbitrate)
        for candidate in iter_cases(0):
            if check_case(candidate, properties=["three_way_agreement"]):
                case = candidate
                break
    assert case is not None
    # Patch reverted: the very same case passes with the real arbiter.
    assert check_case(case, properties=["three_way_agreement"]) == []
