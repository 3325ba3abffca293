import copy
import functools
import operator

import numpy as np
import pytest
from hypothesis import strategies as st

from remnet.data import ActorTable, EventSequence
from remnet.inference import FitResult, ModelSpec, aicc
from remnet.simulation import KnockoutCondition, simulate_trajectory
from remnet.stats import Term


def make_actors(n, icr_indices=(), network_id="net", specialist=None):
    ids = tuple(f"a{k:02d}" for k in range(n))
    icr = tuple(k in set(icr_indices) for k in range(n))
    return ActorTable(network_id, ids, icr, specialist=specialist)


def random_events(n, m, rng):
    """Uniform random dyadic events as index pairs."""
    out = []
    for _ in range(m):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        out.append((i, j))
    return out


def sequence_from_pairs(actors, pairs):
    return EventSequence(
        actors.network_id,
        tuple((actors.actor_ids[i], actors.actor_ids[j]) for i, j in pairs),
    )


def random_sequence(n, m, rng, icr_indices=(), network_id="net"):
    actors = make_actors(n, icr_indices, network_id)
    seq = sequence_from_pairs(actors, random_events(n, m, rng))
    return actors, seq


def simulate_sequence(theta_by_term, actors, m, seed):
    """Draw an event sequence from a known-coefficient model."""
    terms = tuple(theta_by_term)
    theta = np.array([theta_by_term[t] for t in terms], dtype=np.float64)
    spec = ModelSpec(terms=terms, network_id=actors.network_id)
    traj = simulate_trajectory(
        theta, spec, actors, m, KnockoutCondition.named("full"), seed
    )
    return EventSequence(actors.network_id, traj.events)


def point_mass_fit(theta_by_term, m, network_id="net"):
    """A FitResult with zero posterior covariance at the given coefficients."""
    terms = tuple(theta_by_term)
    theta = np.array([theta_by_term[t] for t in terms], dtype=np.float64)
    spec = ModelSpec(terms=terms, network_id=network_id)
    return FitResult(
        spec=spec,
        mode=theta,
        covariance=np.zeros((len(terms), len(terms))),
        log_lik_at_mode=0.0,
        aicc=aicc(0.0, len(terms), m),
        converged=True,
        n_events=m,
    )


@pytest.fixture
def small_fixture():
    """5 actors, 20 uniform events; used by the gradient checks."""
    rng = np.random.default_rng(1234)
    return random_sequence(5, 20, rng, icr_indices=(0, 2))


@pytest.fixture
def path_sized_fixture():
    """32 actors, 70 events: the size of the smallest real network."""
    rng = np.random.default_rng(99)
    return random_sequence(32, 70, rng, icr_indices=(0, 1))


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


def _json_locations(node, prefix=()):
    """Every location in a JSON tree, as a path of keys and indices."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _json_locations(child, prefix + (key,))


def corrupt_json(data, obj):
    """A copy of ``obj`` with one key or list item dropped, or one value (or
    the whole document) swapped for a JSON scalar drawn from ``data``."""
    obj = copy.deepcopy(obj)
    where = data.draw(st.sampled_from(list(_json_locations(obj))))
    if not where:
        return data.draw(JSON_SCALARS)
    parent = functools.reduce(operator.getitem, where[:-1], obj)
    if data.draw(st.booleans()):
        del parent[where[-1]]
    else:
        parent[where[-1]] = data.draw(JSON_SCALARS)
    return obj
