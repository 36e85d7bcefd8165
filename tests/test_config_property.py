"""Property: every JSON document either fails to parse with a ConfigError or
gives a spec that runs.

The documents mix valid fields with wrong types, missing keys and
out-of-range values.  Valid fields keep sizes small enough to run (chains
<= 2,000, steps <= 20, d <= 4); a wrong value such as 10**30 is rejected at
parse time, or, for ``steps``, starts a valid run too long to finish, which
the derandomized examples here never draw.  The one run-time ConfigError a
parsed spec may raise is a ``benchmark_run`` reference whose run diverges:
that cannot be known without running it.  Any other exception is a failure.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hfhr.harness import METRICS, ConfigError, parse_config, run_experiment
from hfhr.potentials import POTENTIAL_PARAMS, VALID_POTENTIALS
from hfhr.samplers import KINDS

BAD = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from([float("nan"), float("inf"), -1, 0, 10**30, 2.5]),
    st.lists(st.integers(-1, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)

POTENTIAL_DIMS = {"quartic": 1, "perturbed": 1, "bimodal": 1, "rosenbrock2d": 2}
PARAMS = {
    "m": st.floats(0.2, 5.0),
    "kappa": st.floats(1.0, 10.0),
    "d": st.integers(1, 4),
    "shift": st.floats(-3.0, 3.0),
}


@st.composite
def valid_documents(draw):
    """A spec that parse_config accepts, at a size that runs in milliseconds."""
    name = draw(st.sampled_from(VALID_POTENTIALS))
    params = {key: draw(PARAMS[key]) for key in POTENTIAL_PARAMS[name] if draw(st.booleans()) or key == "d"}
    dim = params.get("d", POTENTIAL_DIMS.get(name, 1))
    samplers = []
    for i in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(KINDS))
        entry = {"id": f"s{i}", "kind": kind, "step": draw(st.floats(0.1, 3.0))}
        if kind != "ula":
            entry["gamma"] = draw(st.floats(0.1, 5.0))
        if kind in ("hfhr_strang", "hfhr_em"):
            entry["alpha"] = draw(st.floats(0.0, 3.0))
        samplers.append(entry)
    doc = {
        "potential": {"name": name, "params": params},
        "sampler": samplers,
        "chains": draw(st.integers(2, 2000)),
        "seed": draw(st.integers(0, 2**32)),
        "metric": draw(st.sampled_from(METRICS)),
    }
    # a step of at least 0.1 keeps horizon / step (horizon <= 2) at 20 steps or fewer
    if draw(st.booleans()):
        doc["steps"] = draw(st.integers(1, 20))
        doc["record_every"] = draw(st.integers(1, doc["steps"]))
    else:
        doc["horizon"] = draw(st.floats(0.1, 2.0))
    if doc["metric"] != "chi2_hist" and draw(st.booleans()):
        doc["reference"] = {
            "type": "benchmark_run",
            "kind": draw(st.sampled_from(KINDS)),
            "step": draw(st.floats(0.1, 0.5)),
            "horizon": draw(st.floats(0.1, 2.0)),
            "chains": draw(st.integers(1, 200)),
        }
    if draw(st.booleans()):
        value = st.floats(-2.0, 2.0)
        doc["init"] = {
            "q": draw(st.one_of(value, st.lists(value, min_size=dim, max_size=dim))),
            "p": draw(value),
            "q_std": draw(st.floats(0.0, 2.0)),
            "p_std": draw(st.floats(0.0, 2.0)),
        }
    if doc["metric"] == "chi2_hist" and draw(st.booleans()):
        lo = draw(st.floats(-5.0, 0.0))
        doc["histogram"] = {"lo": lo, "hi": lo + draw(st.floats(0.5, 5.0)), "bins": draw(st.integers(2, 60))}
    return doc


def _paths(node):
    """Every (container, key) pair below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    out = []
    for key, child in items:
        out.append((node, key))
        out.extend(_paths(child))
    return out


@st.composite
def documents(draw):
    """A valid document with up to three fields removed, retyped or added;
    two in five are left valid."""
    doc = draw(valid_documents())
    for _ in range(draw(st.sampled_from((0, 0, 1, 2, 3)))):
        container, key = draw(st.sampled_from(_paths(doc)))
        action = draw(st.sampled_from(["drop", "replace", "add"]))
        if action == "drop" and isinstance(container, dict):
            del container[key]
        elif action == "add" and isinstance(container, dict):
            container[draw(st.sampled_from(["other", "d", "q", "steps", "horizon"]))] = draw(BAD)
        else:
            container[key] = draw(BAD)
    return doc


@settings(
    max_examples=100,
    deadline=5000,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(doc=st.one_of(documents(), documents(), documents(), BAD))
def test_every_document_parses_to_a_runnable_spec_or_fails_cleanly(doc):
    try:
        spec = parse_config(json.dumps(doc))
    except ConfigError:
        return
    try:
        run_experiment(spec)
    except ConfigError as exc:
        assert spec.reference == "benchmark_run" and "reference run diverged" in str(exc)
