"""A batch of geodesics is its rows' lone integrations, bit for bit.

``integrate_geodesics`` steps N states through one RK4 loop; a row whose
step leaves the grid, or the margin of central differences, stops there
alone.  Each ``test_geodesic_pins.py`` family is integrated as a batch whose
rows stay inside, leave the box at different steps, or lose the margin, and
every row's table and ``left_domain`` must equal ``integrate_geodesic``'s.
The runner batches a scenario's geodesic tasks by (tau_end, h_tau,
drag_contraction) under a row cap; its outputs must not depend on that.

The lone integrations of all 15 cases are pinned by sha256, as
``test_geodesic_pins.py`` pins the five inside states alone, so the rows
keep the bits of the single-trajectory path they were recorded from
(x86-64 Linux, Python 3.11, numpy 2.4).
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from scalefield.geodesics import (
    GeodesicBatch,
    GeodesicState,
    integrate_geodesic,
    integrate_geodesics,
)
from scalefield.runner import EXIT_OK, run_scenario
from scalefield.scenario import (
    MAX_GEODESIC_STEPS,
    parse_scenario_text,
    validate_scenario,
)
from test_geodesic_pins import PINS

DEMO = Path(__file__).resolve().parent.parent / "scenarios" / "demo.json"

# extra speed along axis 1 for each row: 0 stays inside on every family,
# 3 and 5 reach the bound (or the central margin) at different steps
BOOSTS = (0.0, 3.0, 5.0)


def _states(state, boosts):
    rows = []
    for u in boosts:
        v = state.velocity.copy()
        v[1] += u
        rows.append(GeodesicState(state.position, v))
    return rows


def _case(name, case):
    """(field, rows, tau_end, h_tau, drag) of a pin family for one case."""
    field, state, tau_end, h_tau, drag = PINS[name][0]()
    if case == "inside":
        q, v = state.position, state.velocity
        rows = [state, GeodesicState(q + 0.05, 0.9 * v),
                GeodesicState(q - 0.1, v[::-1].copy())]
    else:
        mode = "analytic" if case == "leaving" else "central"
        field = dataclasses.replace(field, gradient_mode=mode)
        rows = _states(state, BOOSTS)
    return field, rows, tau_end, h_tau, drag


def _same(tr, lone):
    return (tr.table.shape == lone.table.shape
            and tr.table.tobytes() == lone.table.tobytes()
            and tr.left_domain == lone.left_domain)


@pytest.mark.parametrize("case", ["inside", "leaving", "margin"])
@pytest.mark.parametrize("name", sorted(PINS))
def test_batch_rows_are_their_lone_integrations(name, case):
    field, rows, tau_end, h_tau, drag = _case(name, case)
    lone = [integrate_geodesic(s, field, tau_end, h_tau, drag) for s in rows]
    batch = integrate_geodesics(rows, field, tau_end, h_tau, drag)
    # the case is what it says: which rows stop, and where
    lengths = [len(tr) for tr in lone]
    bound = max(hi for _, hi in field.manifold.bounds)
    if case == "inside":
        assert not any(tr.left_domain for tr in lone)
    else:
        assert [tr.left_domain for tr in lone] == [False, True, True]
        assert len(set(lengths)) == 3
        reach = [np.abs(tr.final.position).max() for tr in lone[1:]]
        margin = bound - field.gradient_step / 2
        assert all(r > margin if case == "leaving" else r < margin
                   for r in reach)
    assert [_same(tr, one) for tr, one in zip(batch, lone)] == [True] * 3


LONE_PINS = {
    ("central-gaussian", "inside"):
        "56cccd1e35851af354446e67de3b7c14c144ab6378bbe5e3bf361f65e4d1ff85",
    ("central-gaussian", "leaving"):
        "cc10f04f45b6385af949123e2008980a830e1b320dfb9920f57498a29e626ffd",
    ("central-gaussian", "margin"):
        "2987a7f6f0a48cc06747b06587df3528e1dba1e6793185d43cd919213fd93723",
    ("radial-polynomial", "inside"):
        "491ee2de4a2cd3a3f66d1491735c08ff5d76589c255748b216edce3ebb9affbf",
    ("radial-polynomial", "leaving"):
        "f2c4c55b875db97fa156dd219e0aa0edc28a2fac86ccf45cd8560095bd89129a",
    ("radial-polynomial", "margin"):
        "7ce372d0c5895aac76f88a0afb4447fd48fd24a63fae2241b605357ae1cc4640",
    ("trajectories-family", "inside"):
        "593ccfd74df0c601784d05411a7ccfec71f2a89aa6a67bc5137a79fb791468dc",
    ("trajectories-family", "leaving"):
        "4100281c7b47fcaf00e76ddfc7a3da7d0a90c6b80f59a0474c22acceee7cf6ef",
    ("trajectories-family", "margin"):
        "4a1a8138b7d47050f1c31914f99aed20d7a89c3ad5de80cd1c8f26c8988bb676",
    ("trajectories-family-central", "inside"):
        "6993ca7249b8caa249e71314ea15c2ae00f46bc047cd4db574f8f9dd0e89f21a",
    ("trajectories-family-central", "leaving"):
        "4100281c7b47fcaf00e76ddfc7a3da7d0a90c6b80f59a0474c22acceee7cf6ef",
    ("trajectories-family-central", "margin"):
        "4a1a8138b7d47050f1c31914f99aed20d7a89c3ad5de80cd1c8f26c8988bb676",
    ("trajectories-family-minkowski-drag", "inside"):
        "5ff39699b6bde3ae9bec564a56bc6c5c003ea12ab36f9c35942d5a0bb9c39a58",
    ("trajectories-family-minkowski-drag", "leaving"):
        "2a14221f4921c618dc7b4b473222357f6cd83436fc59ca0501334de46f2df738",
    ("trajectories-family-minkowski-drag", "margin"):
        "ff3727c549ec57b1e8fa20e7675290e08d58b58f9cad5a06283f8af795e97430",
}


@pytest.mark.parametrize("case", ["inside", "leaving", "margin"])
@pytest.mark.parametrize("name", sorted(PINS))
def test_lone_integrations_of_every_case_are_pinned(name, case):
    field, rows, tau_end, h_tau, drag = _case(name, case)
    h = hashlib.sha256()
    for s in rows:
        tr = integrate_geodesic(s, field, tau_end, h_tau, drag)
        h.update(repr(tr.table.shape).encode())
        h.update(np.ascontiguousarray(tr.table, dtype="<f8").tobytes())
        h.update(b"left" if tr.left_domain else b"inside")
    assert h.hexdigest() == LONE_PINS[name, case]


def test_a_batch_that_leaves_entirely_stops_every_row():
    field, rows, tau_end, h_tau, drag = _case("radial-polynomial", "leaving")
    rows = rows[1:]
    lone = [integrate_geodesic(s, field, tau_end, h_tau, drag) for s in rows]
    batch = integrate_geodesics(rows, field, tau_end, h_tau, drag)
    assert all(tr.left_domain for tr in batch)
    assert all(_same(tr, one) for tr, one in zip(batch, lone))


def test_integrate_geodesic_takes_each_state_out_of_its_batch():
    field, rows, tau_end, h_tau, drag = _case("trajectories-family", "leaving")
    batch = GeodesicBatch(list(rows))
    lone = [integrate_geodesic(s, field, tau_end, h_tau, drag) for s in rows]
    # any order: the first call integrates the batch, later ones take rows
    got = {i: integrate_geodesic(rows[i], field, tau_end, h_tau, drag,
                                 batch=batch) for i in (2, 0, 1)}
    assert batch.ready == {}
    assert all(_same(got[i], lone[i]) for i in range(3))
    # a row taken twice is integrated again
    assert _same(integrate_geodesic(rows[1], field, tau_end, h_tau, drag,
                                    batch=batch), lone[1])


def _geodesic(position, velocity, h_tau, tau_end=1.0):
    return {"type": "geodesic", "position": position, "velocity": velocity,
            "tau_end": tau_end, "h_tau": h_tau}


def _scenario(tasks):
    doc = json.loads(DEMO.read_text(encoding="utf-8"))
    doc["tasks"] = tasks
    return doc


def _run(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / f"{name}_out"
    code = run_scenario(str(path), out=str(out))
    return code, out, json.loads((out / "summary.json").read_text("utf-8"))


def test_batched_scenario_writes_what_each_geodesic_writes_alone(tmp_path):
    demo = json.loads(DEMO.read_text(encoding="utf-8"))["tasks"]
    others = {t["type"]: t for t in demo if t["type"] != "geodesic"}
    tasks = [
        others["axioms"],
        _geodesic([0.0, -1.0, 0.0, 0.0], [0.0, 0.8, 0.3, 0.0], 0.01),
        others["pathlen"],
        _geodesic([0.0, 0.5, 0.2, 0.0], [0.1, -0.4, 0.6, 0.2], 0.005),
        _geodesic([0.0, 1.2, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0], 0.01),
        others["compare"],
        _geodesic([0.3, 0.0, -0.5, 0.1], [0.2, 0.3, 0.1, -0.7], 0.005),
    ]
    doc = _scenario(tasks)
    rt = validate_scenario(parse_scenario_text(json.dumps(doc)))
    batches = {i: rt.inputs[i][1] for i in (1, 3, 4, 6)}
    assert batches[1] is batches[4] and batches[3] is batches[6]
    assert batches[1] is not batches[3]

    code, out, summary = _run(tmp_path, "mixed", doc)
    assert code == EXIT_OK
    assert summary["tasks"][4]["results"]["left_domain"] is True
    for i in batches:
        _, alone, single = _run(tmp_path, f"alone{i}", _scenario([tasks[i]]))
        assert (out / f"{i:02d}_geodesic.csv").read_bytes() == \
            (alone / "00_geodesic.csv").read_bytes()
        entry, lone = summary["tasks"][i], single["tasks"][0]
        assert (entry["status"], entry["results"]) == \
            (lone["status"], lone["results"])


def test_a_group_past_the_row_cap_is_split():
    # 400,000 steps hold 400,001 rows: two such tables fit under the cap of
    # MAX_GEODESIC_STEPS + 1 rows, a third does not; other keys batch apart
    h = 1.0 / 400_000
    start = ([0.0, 0.0, 0.0, 0.0], [0.1, 0.1, 0.0, 0.0])
    tasks = [_geodesic(*start, h), _geodesic(*start, h),
             _geodesic(*start, 2 * h, tau_end=2.0), _geodesic(*start, h),
             _geodesic(*start, h)]
    rt = validate_scenario(parse_scenario_text(json.dumps(_scenario(tasks))))
    batches = [batch for _, batch in rt.inputs]
    assert batches[0] is batches[1]
    assert batches[3] is batches[4] is not batches[0]
    assert batches[2] not in (batches[0], batches[3])
    assert 2 * 400_001 <= MAX_GEODESIC_STEPS + 1 < 3 * 400_001
    assert [len(b.states) for b in batches] == [2, 2, 1, 2, 2]
    assert all(any(s is state for s in batch.states)
               for state, batch in rt.inputs)

