"""Output checks of the benchmark.

None of these compares against a snapshot of today's output.  They are
properties the SCFI method must have (the diffusion-layer guarantee and
counter conservation), agreement with an independent oracle (the scalar
engine, which does not share the bit-parallel engines' fault application),
agreement between two paths that must give the same answer (warm replay or
served document against an in-process cold run), and the committed goldens.

Each check returns a list of failure messages; empty means it passed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

OUTCOMES = ("masked", "detected", "redirected", "hijacked")


class Expectations:
    """Injection counts the fault generators must produce, worked out from
    the hardened netlist and the spec, never from a campaign result."""

    def __init__(self) -> None:
        self._shapes: Dict[str, Dict] = {}

    def shape(self, fsm: str) -> Dict:
        """Transition contexts, net-group sizes and gate count of one FSM."""
        if fsm not in self._shapes:
            from repro.api import FsmSpec, ProtectSpec, Session
            from repro.fi.injector import ScfiFaultInjector
            from repro.fi.scenarios import scfi_fault_regions, transition_contexts

            structure = Session().harden(FsmSpec(name=fsm), ProtectSpec()).structure
            injector = ScfiFaultInjector(structure)
            self._shapes[fsm] = {
                "contexts": len(transition_contexts(structure)),
                "comb": len(injector.all_comb_nets()),
                "diffusion": len(injector.diffusion_nets()),
                "regions": {k: len(v) for k, v in scfi_fault_regions(structure).items()},
                "gates": len(structure.netlist.gates),
            }
        return self._shapes[fsm]

    def injections(self, spec: Dict, scenario: str) -> int:
        """Expected ``total_injections`` of one result scenario."""
        campaign = spec["campaign"]
        kind = campaign["scenario"]
        if kind == "random":
            return campaign["trials"]
        if kind == "laser":
            return campaign["spot_trials"]
        shape = self.shape(spec["fsm"]["name"])
        effects = len(campaign.get("effects") or ["flip"])
        if kind == "regions":
            return shape["contexts"] * shape["regions"][scenario] * effects
        nets = shape[campaign.get("target") or "diffusion"]
        if kind == "effects":
            return shape["contexts"] * nets  # one scenario per effect
        if kind in ("temporal", "exhaustive"):
            return shape["contexts"] * nets * effects
        raise ValueError(f"no injection-count rule for scenario {kind!r}")


def label(spec: Dict) -> str:
    return f"{spec['fsm']['name']}/{spec['campaign']['scenario']}"


def conservation(spec: Dict, doc: Dict, expect: Expectations) -> List[str]:
    """Outcome counters sum to the total, which matches the generator."""
    campaigns = doc.get("campaigns") or {}
    if not campaigns:
        return [f"{label(spec)}: result has no campaign counters"]
    failures = []
    for name, counters in campaigns.items():
        total = counters["total_injections"]
        if sum(counters[key] for key in OUTCOMES) != total:
            failures.append(f"{label(spec)}/{name}: outcome counters do not sum to {total}")
        wanted = expect.injections(spec, name)
        if total != wanted:
            failures.append(f"{label(spec)}/{name}: {total} injections, "
                            f"the generator should give {wanted}")
    return failures


def scfi_guarantee(spec: Dict, doc: Dict) -> List[str]:
    """Single faults on the diffusion layer: every flip is detected, a
    stuck-at is masked exactly when the net already held that value (so
    masked(stuck0) + masked(stuck1) == total), nothing is redirected or
    hijacked."""
    campaigns = doc.get("campaigns") or {}
    failures = []
    flip = campaigns.get("flip")
    if flip is None or flip["detected"] != flip["total_injections"]:
        failures.append(f"{label(spec)}: not every single diffusion flip is detected")
    stuck0, stuck1 = campaigns.get("stuck0"), campaigns.get("stuck1")
    if stuck0 is None or stuck1 is None or (
        stuck0["masked"] + stuck1["masked"] != stuck0["total_injections"]
    ):
        failures.append(f"{label(spec)}: masked(stuck0) + masked(stuck1) != total")
    for effect, counters in campaigns.items():
        if counters["redirected"] or counters["hijacked"]:
            failures.append(f"{label(spec)}/{effect}: diffusion fault redirected or hijacked")
    return failures


def is_guarantee_spec(spec: Dict) -> bool:
    """Single-cycle sweeps of every effect over the diffusion layer."""
    campaign = spec.get("campaign") or {}
    return (
        campaign.get("scenario") == "effects"
        and campaign.get("target") in (None, "diffusion")
        and sorted(campaign.get("effects") or ("flip", "stuck0", "stuck1"))
        == ["flip", "stuck0", "stuck1"]
    )


def counters_of(doc: Dict) -> Dict[str, tuple]:
    return {
        name: tuple(counters[key] for key in ("total_injections",) + OUTCOMES)
        for name, counters in (doc.get("campaigns") or {}).items()
    }


def same_answer(what: str, doc: Dict, reference: Dict) -> List[str]:
    """Two documents of one spec carry the same spec hash, hardening summary
    and campaign counters."""
    failures = []
    if doc.get("spec_hash") != reference.get("spec_hash"):
        failures.append(f"{what}: spec hash differs")
    if counters_of(doc) != counters_of(reference):
        failures.append(f"{what}: counters {counters_of(doc)} != {counters_of(reference)}")
    if doc.get("harden") != reference.get("harden"):
        failures.append(f"{what}: hardening summary differs")
    return failures


def golden(what: str, doc: Dict, expected: Dict) -> List[str]:
    """A document matches a committed ``*.golden.json``."""
    failures = []
    if doc.get("spec_hash") != expected["spec_hash"]:
        failures.append(f"{what}: spec hash differs from the golden")
    for name, counters in expected["campaigns"].items():
        got = (doc.get("campaigns") or {}).get(name, {})
        for key, value in counters.items():
            if got.get(key) != value:
                failures.append(f"{what}/{name}: {key} {got.get(key)} != golden {value}")
    return failures


#: Scalar-oracle budget per run in cost units (injections x gates x
#: cycles; about 1.6 us each on the reference machine), at most
#: ``ORACLE_SPECS`` specs.
ORACLE_BUDGET = 1.5e6
ORACLE_SPECS = 3


def oracle_subset(
    seed: int, specs: Sequence[Dict], docs: Dict[str, Dict], expect: Expectations,
    limit: int = ORACLE_SPECS,
) -> List[Dict]:
    """A seeded choice of computed specs the scalar oracle can afford."""
    from repro.api import ExperimentSpec

    order = list(specs)
    random.Random(f"oracle/{seed}").shuffle(order)
    chosen, spent = [], 0.0
    for spec in order:
        doc = docs[ExperimentSpec.from_dict(spec).content_hash()]
        cost = (
            sum(c["total_injections"] for c in doc["campaigns"].values())
            * expect.shape(spec["fsm"]["name"])["gates"]
            * spec["campaign"].get("cycles", 1)
        )
        if spent + cost <= ORACLE_BUDGET:
            chosen.append(spec)
            spent += cost
        if len(chosen) == limit:
            break
    return chosen


def oracle_replay(specs: Sequence[Dict], docs: Dict[str, Dict]) -> List[str]:
    """Replay specs on the scalar engine; counters must agree."""
    from repro.api import ExperimentSpec, Session

    failures = []
    for spec in specs:
        parsed = ExperimentSpec.from_dict(spec)
        reference = Session().run(parsed, engine="scalar").to_dict()
        got = counters_of(docs[parsed.content_hash()])
        if got != counters_of(reference):
            failures.append(f"oracle {label(spec)}: {got} != scalar {counters_of(reference)}")
    return failures
