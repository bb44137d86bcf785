"""Workload generators: determinism, closed pools, reference coverage."""

import json

import pytest

import workloads
from run import REFERENCE


def _materialized(tmp_path, name, seed, sub):
    requests = workloads.build(name, seed)
    directory = tmp_path / sub
    argv = workloads.materialize(requests, directory)
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return [[a.replace(str(directory), "<dir>") for a in args] for args in argv], files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_argv_and_files(tmp_path, name):
    first = _materialized(tmp_path, name, 11, "a")
    second = _materialized(tmp_path, name, 11, "b")
    assert first == second
    assert first[0]


def test_seed_changes_ladder_requests():
    keys = {tuple(r.key for r in workloads.build("classes-ladder", seed)) for seed in range(10)}
    assert len(keys) == 10


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_seed_draws_from_the_recorded_pool(name):
    pool = {r.key for r in workloads.pool(name)}
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert pool <= set(reference)
    for seed in range(40):
        assert {r.key for r in workloads.build(name, seed)} <= pool


def test_comma_size_of_the_chain_cospan():
    chain = workloads._chain(6)
    identity = list(range(6))
    assert workloads.comma_size(chain, chain, chain, identity, identity) == (21, 196)


def test_pool_cospans_fit_the_comma_caps():
    lo, hi = workloads.COMMA_MORPHISMS
    cospans = [r for r in workloads.pool("structures") if r.argv[0] == "comma"]
    assert len(cospans) == workloads.STRUCTURE_POOL
    for request in cospans:
        _, objects, morphisms = request.expect
        assert objects <= workloads.COMMA_MAX_OBJECTS and lo <= morphisms <= hi


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pool_requests_are_distinct(name):
    keys = [r.key for r in workloads.pool(name)]
    assert len(keys) == len(set(keys))
