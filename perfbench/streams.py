"""Seeded spec streams of the three workloads.

Every stream is a sequence of *rounds*.  A round always holds the same
families on the same FSMs in the same numbers, so its cost does not depend
on the seed; the seed only moves what a user would vary between runs of one
kind (random-fault and laser-spot seeds, spec order, effect order, a warm
campaign's lane budget).  Runs measure whole rounds.

Specs are plain JSON documents (``ExperimentSpec.to_dict`` form); the program
receives nothing else.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ALL_EFFECTS = ("flip", "stuck0", "stuck1")
EFFECT_ORDERS = list(itertools.permutations(ALL_EFFECTS))

#: The registered FSM library, largest first (by hardened gate count).
LIBRARY = (
    "i2c_fsm", "adc_ctrl_fsm", "pwrmgr_fsm", "ibex_controller", "aes_control",
    "spi_master", "otbn_controller", "ibex_lsu", "formal_fsm", "uart_rx",
    "traffic_light",
)
#: The four largest FSMs, hardened into the store by warm-sweep's set-up.
WARM_FSMS = LIBRARY[:4]

#: Lane budget of the parallel-numpy campaigns (the engine's default).
WIDE = 4096


def spec_doc(fsm: str, campaign: Optional[Dict] = None) -> Dict:
    """One ExperimentSpec document with default protection and report."""
    full = None
    if campaign is not None:
        full = {
            "scenario": "exhaustive", "target": None, "effects": None, "faults": 2,
            "trials": 1000, "seed": 0, "engine": "parallel", "lane_width": None,
            "workers": 1, "pack_contexts": True, "compare": False,
        }
        full.update(campaign)
        if full["effects"] is not None:
            full["effects"] = list(full["effects"])
    return {
        "version": 1,
        "fsm": {"name": fsm, "verilog": None},
        "protect": {"protection_level": 2, "error_bits": 3, "share_xors": True,
                    "repair_diffusion": True},
        "campaign": full,
        "report": {"keep_outcomes": False, "include_area": True,
                   "include_timing": False, "emit_verilog": False},
    }


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(part) for part in parts))


# ----------------------------------------------------------------------
# cold-library
# ----------------------------------------------------------------------

COLD_RANDOM_TRIALS = 1000
COLD_SPOT_TRIALS = 200


def cold_round(seed: int, round_index: int, fsms=LIBRARY) -> List[Dict]:
    """The specs of one cold-library round, in run order: per FSM an
    effects sweep on ``comb``, a persistent stuck-at temporal trace, random
    multi-faults, laser spots, and the effects-on-diffusion spec the SCFI
    guarantee is checked on."""
    numpy = {"engine": "parallel-numpy", "lane_width": WIDE}
    specs = []
    for fsm in fsms:
        draw = _rng("cold", seed, round_index, fsm)
        specs += [
            spec_doc(fsm, {"scenario": "effects", "target": "comb", **numpy}),
            spec_doc(fsm, {
                "scenario": "temporal", "target": "diffusion", "cycles": 4,
                "fault_duration": "persistent", "effects": ("stuck0", "stuck1"), **numpy}),
            spec_doc(fsm, {
                "scenario": "random", "target": "comb", "faults": 3,
                "trials": COLD_RANDOM_TRIALS, "seed": draw.randrange(2**31), **numpy}),
            spec_doc(fsm, {
                "scenario": "laser", "cycles": 2, "spot_radius": 1.5,
                "spot_trials": COLD_SPOT_TRIALS, "seed": draw.randrange(2**31), **numpy}),
            spec_doc(fsm, {"scenario": "effects", "target": "diffusion", **numpy}),
        ]
    _rng("cold-order", seed, round_index).shuffle(specs)
    return specs


# ----------------------------------------------------------------------
# warm-sweep
# ----------------------------------------------------------------------

#: Replays trail their cold run by this many cold campaigns in a round.
WARM_REPLAY_LAG = 4


def warm_harden_specs(fsms=WARM_FSMS) -> List[Dict]:
    """The pure hardening specs warm-sweep's set-up stores."""
    return [spec_doc(fsm) for fsm in fsms]


def warm_lane_widths(seed: int) -> List[int]:
    """One distinct lane budget per round, all within 1/8 of the default.

    A campaign differs from its earlier rounds only in its lane budget, so
    every cold run is a genuine plan + campaign miss against a stored
    hardened netlist while each round costs the same.
    """
    widths = list(range(WIDE - WIDE // 8, WIDE + 1))
    _rng("warm-widths", seed).shuffle(widths)
    return widths


def warm_round(seed: int, round_index: int, fsms=WARM_FSMS) -> List[Tuple[str, Dict]]:
    """``(kind, spec)`` pairs of one warm-sweep round; kind is ``cold`` or
    ``replay``.  Every cold campaign of the round is replayed once, later in
    the same round, after ``WARM_REPLAY_LAG`` further cold campaigns."""
    width = warm_lane_widths(seed)[round_index]
    draw = _rng("warm", seed, round_index)
    colds = []
    for fsm in fsms:
        numpy = {"engine": "parallel-numpy", "lane_width": width}
        order = list(EFFECT_ORDERS[draw.randrange(len(EFFECT_ORDERS))])
        colds += [
            spec_doc(fsm, {"scenario": "effects", "target": "comb", "effects": order, **numpy}),
            spec_doc(fsm, {"scenario": "regions", "effects": order, **numpy}),
            spec_doc(fsm, {"scenario": "temporal", "target": "comb", "cycles": 1, **numpy}),
            spec_doc(fsm, {"scenario": "temporal", "target": "comb", "cycles": 3,
                           "fault_duration": "transient", **numpy}),
        ]
    draw.shuffle(colds)
    ops: List[Tuple[str, Dict]] = []
    for index, spec in enumerate(colds):
        ops.append(("cold", spec))
        if index >= WARM_REPLAY_LAG:
            ops.append(("replay", colds[index - WARM_REPLAY_LAG]))
    ops += [("replay", spec) for spec in colds[-WARM_REPLAY_LAG:]]
    return ops


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------

SERVICE_FAMILIES = ("effects", "temporal", "random", "laser")


def examples(root: Path) -> List[Tuple[str, Dict, Dict]]:
    """``(name, spec, golden)`` of every committed example spec."""
    found = []
    for path in sorted((root / "examples").glob("*.golden.json")):
        spec_path = path.with_name(path.name.replace(".golden.json", ".json"))
        found.append((spec_path.stem, json.loads(spec_path.read_text()),
                      json.loads(path.read_text())))
    return found


def inadmissible_spec(round_index: int, connection: int) -> Dict:
    """A spec admission should refuse: a fractional trial count.  Fixed, not
    seeded: it fails on every run the same way."""
    return spec_doc("traffic_light", {
        "scenario": "random", "trials": 2.5, "seed": 2 * round_index + connection})


def service_fresh(seed: int, round_index: int, fsms=LIBRARY) -> List[Dict]:
    """The fresh specs of one service-mixed round: one per FSM, the family
    rotating with the round; ``engine`` left at its default.  A sweep spec
    differs from earlier ones in its seed and the order of its effects."""
    fresh = []
    for position, fsm in enumerate(fsms):
        draw = _rng("svc", seed, round_index, fsm)
        family = SERVICE_FAMILIES[(position + round_index) % len(SERVICE_FAMILIES)]
        order = list(EFFECT_ORDERS[draw.randrange(len(EFFECT_ORDERS))])
        if family == "effects":
            campaign = {"scenario": "effects", "target": "diffusion", "effects": order,
                        "seed": draw.randrange(2**31)}
        elif family == "temporal":
            campaign = {"scenario": "temporal", "target": "diffusion", "cycles": 4,
                        "fault_duration": "persistent", "effects": order,
                        "seed": draw.randrange(2**31)}
        elif family == "random":
            campaign = {"scenario": "random", "target": "comb", "faults": 3,
                        "trials": 1000, "seed": draw.randrange(2**31)}
        else:
            campaign = {"scenario": "laser", "cycles": 2, "spot_radius": 1.5,
                        "spot_trials": 200, "seed": draw.randrange(2**31)}
        fresh.append(spec_doc(fsm, campaign))
    return fresh


def service_coalesce_spec(seed: int, round_index: int) -> Dict:
    """The fresh spec both connections submit together once per round."""
    return spec_doc("pwrmgr_fsm", {
        "scenario": "random", "target": "comb", "faults": 2, "trials": 1500,
        "seed": _rng("svc-coalesce", seed, round_index).randrange(2**31)})


def service_round(
    seed: int, round_index: int, example_specs: List[Dict], connections: int = 2,
    fsms=LIBRARY,
) -> List[List[Tuple[str, Dict]]]:
    """Per-connection ``(kind, spec)`` lists of one service-mixed round.

    kinds: ``fresh``, ``resubmit`` (an earlier spec of this connection, so
    it is already answered), ``example``, ``inadmissible`` and ``coalesce``
    (the round's shared spec; both connections meet at it).  Each
    connection's list is closed-loop: it submits its next spec only after the
    previous result arrived.
    """
    fresh = service_fresh(seed, round_index, fsms)
    draw = _rng("svc-resubmit", seed, round_index)
    lists = []
    for connection in range(connections):
        own = fresh[connection::connections]
        ops: List[Tuple[str, Dict]] = [
            ("example", example_specs[(round_index * connections + connection) % len(example_specs)])
        ]
        for index, spec in enumerate(own):
            ops.append(("fresh", spec))
            earlier = [s for kind, s in ops if kind in ("fresh", "example")]
            ops.append(("resubmit", earlier[draw.randrange(len(earlier))]))
            if index == len(own) // 2:
                ops.append(("coalesce", service_coalesce_spec(seed, round_index)))
                ops.append(("inadmissible", inadmissible_spec(round_index, connection)))
        lists.append(ops)
    return lists
