"""The selectors: pool semantics, aggressiveness, hyperparameter protocol."""

import functools

import pytest

from repro.minigraph import (
    SerializationClass, SlackDynamicSelector, SlackProfileSelector,
    StructAll, StructBounded, StructNone, make_plan,
)
from repro.minigraph.selectors import (
    SELECTOR_FAMILIES, FixedSetSelector, ReadPortAwareSelector,
    selector_from_spec,
)
from repro.minigraph.slack import SlackCollector
from repro.minigraph.templates import build_templates
from repro.minigraph import enumerate_candidates
from repro.harness.runner import Runner
from repro.pipeline import reduced_config
from repro.pipeline.config import config_by_name
from repro.pipeline.core import OoOCore
from repro.workloads import benchmark

#: Memoizing runner for the golden-workload traces.
_RUNNER = Runner()


def _sites(program, trace):
    candidates = enumerate_candidates(program)
    templates = build_templates(candidates, trace.dynamic_count_of())
    return [site for t in templates for site in t.sites]


def _profile(program, trace):
    collector = SlackCollector(program, config_name="reduced")
    OoOCore(reduced_config(), trace.records, collector=collector,
            warm_caches=True).run()
    return collector.profile()


def test_pool_ordering(branchy_loop, branchy_trace):
    """Pool sizes: none <= bounded <= slack-profile-pool? and all is max.

    Struct-None ⊆ Struct-Bounded ⊆ Struct-All always holds; Slack-Profile
    lies between Struct-None and Struct-All.
    """
    sites = _sites(branchy_loop, branchy_trace)
    profile = _profile(branchy_loop, branchy_trace)
    pool_all = StructAll().build_pool(sites, None)
    pool_none = StructNone().build_pool(sites, None)
    pool_bounded = StructBounded().build_pool(sites, None)
    pool_slack = SlackProfileSelector().build_pool(sites, profile)
    ids = lambda pool: {s.id for s in pool}
    assert ids(pool_none) <= ids(pool_bounded) <= ids(pool_all)
    assert ids(pool_none) <= ids(pool_slack) <= ids(pool_all)
    assert len(pool_all) == len(sites)


def test_struct_none_admits_only_shape_safe(branchy_loop, branchy_trace):
    sites = _sites(branchy_loop, branchy_trace)
    pool = StructNone().build_pool(sites, None)
    for site in pool:
        assert site.candidate.serialization is SerializationClass.NONE


def test_struct_bounded_excludes_unbounded(branchy_loop, branchy_trace):
    sites = _sites(branchy_loop, branchy_trace)
    pool = StructBounded().build_pool(sites, None)
    for site in pool:
        assert site.candidate.serialization is not \
            SerializationClass.UNBOUNDED


def test_slack_profile_requires_profile(branchy_loop, branchy_trace):
    sites = _sites(branchy_loop, branchy_trace)
    serializing = [s for s in sites
                   if s.candidate.is_potentially_serializing]
    if not serializing:
        pytest.skip("no serializing candidates in this program")
    with pytest.raises(ValueError):
        SlackProfileSelector().admit(serializing[0], None)


def test_slack_profile_variants_are_ordered(branchy_loop, branchy_trace):
    """full admits ⊇ delay admits (rule #4 only relaxes rejection)."""
    sites = _sites(branchy_loop, branchy_trace)
    profile = _profile(branchy_loop, branchy_trace)
    full_pool = {s.id for s in
                 SlackProfileSelector("full").build_pool(sites, profile)}
    delay_pool = {s.id for s in
                  SlackProfileSelector("delay").build_pool(sites, profile)}
    assert delay_pool <= full_pool


def test_slack_profile_unknown_variant_rejected():
    with pytest.raises(ValueError):
        SlackProfileSelector("bogus")


def test_slack_dynamic_pool_equals_struct_all(branchy_loop, branchy_trace):
    sites = _sites(branchy_loop, branchy_trace)
    dynamic_pool = {s.id for s in
                    SlackDynamicSelector().build_pool(sites, None)}
    all_pool = {s.id for s in StructAll().build_pool(sites, None)}
    assert dynamic_pool == all_pool


def test_fixed_set_selector(branchy_loop, branchy_trace):
    sites = _sites(branchy_loop, branchy_trace)
    chosen = {sites[0].id}
    pool = FixedSetSelector(chosen).build_pool(sites, None)
    assert {s.id for s in pool} == chosen


def test_make_plan_end_to_end(branchy_loop, branchy_trace):
    plan = make_plan(branchy_loop, branchy_trace.dynamic_count_of(),
                     StructAll())
    assert plan.sites
    assert plan.n_templates <= 512


def test_make_plan_budget(branchy_loop, branchy_trace):
    plan = make_plan(branchy_loop, branchy_trace.dynamic_count_of(),
                     StructAll(), budget=1)
    assert plan.n_templates <= 1


def test_selector_names():
    assert StructAll().name == "struct-all"
    assert StructNone().name == "struct-none"
    assert StructBounded().name == "struct-bounded"
    assert SlackProfileSelector().name == "slack-profile"
    assert SlackProfileSelector("delay").name == "slack-profile-delay"
    assert SlackProfileSelector("sial").name == "slack-profile-sial"
    assert SlackDynamicSelector().name == "slack-dynamic"
    assert ReadPortAwareSelector().name == "read-port"


# -- hyperparameter protocol --------------------------------------------------

def _protocol_instances():
    """One instance per registered family, plus hyperparameter variants."""
    return [
        StructAll(), StructNone(), StructBounded(),
        SlackProfileSelector(),
        SlackProfileSelector("delay", unprofiled_ok=False),
        SlackProfileSelector("sial", measured_latencies=True),
        SlackDynamicSelector(),
        FixedSetSelector({4, 1, 9}),
        ReadPortAwareSelector(),
        ReadPortAwareSelector(port_budget=0, pressure_weight=3.0),
        ReadPortAwareSelector(port_budget=1, pressure_weight=0.5),
    ]


def test_every_family_is_registered():
    kinds = {type(sel).kind for sel in _protocol_instances()}
    assert kinds <= set(SELECTOR_FAMILIES)
    for kind, cls in SELECTOR_FAMILIES.items():
        assert cls.kind == kind


def test_spec_is_kind_plus_params():
    for sel in _protocol_instances():
        assert sel.spec() == {"kind": type(sel).kind, **sel.params()}


def test_params_round_trip_specs():
    for sel in _protocol_instances():
        rebuilt = type(sel).from_params(sel.params())
        assert rebuilt.spec() == sel.spec()
        assert rebuilt.display_name == sel.display_name
        assert selector_from_spec(sel.spec()).spec() == sel.spec()


def test_params_round_trip_bit_identical_plans(branchy_loop, branchy_trace):
    """from_params(s.params()) selects exactly the plan ``s`` selects."""
    freq = branchy_trace.dynamic_count_of()
    profile = _profile(branchy_loop, branchy_trace)
    for sel in _protocol_instances():
        if isinstance(sel, FixedSetSelector):
            continue   # site ids are program-specific; covered above
        rebuilt = type(sel).from_params(sel.params())
        kwargs = {"profile": profile} if sel.needs_profile else {}
        original = make_plan(branchy_loop, freq, sel, **kwargs)
        again = make_plan(branchy_loop, freq, rebuilt, **kwargs)
        assert [(s.start, s.end, s.template.id) for s in original.sites] \
            == [(s.start, s.end, s.template.id) for s in again.sites]


def test_selector_from_spec_rejects_unknown():
    with pytest.raises(ValueError):
        selector_from_spec({"kind": "psychic"})
    with pytest.raises(ValueError):
        selector_from_spec({})


# -- read-port-aware selector -------------------------------------------------

def test_read_port_rejects_bad_hyperparameters():
    with pytest.raises(ValueError):
        ReadPortAwareSelector(port_budget=-1)
    with pytest.raises(ValueError):
        ReadPortAwareSelector(pressure_weight=-0.5)


def test_read_port_pool_is_subset_of_struct_all(branchy_loop,
                                                branchy_trace):
    sites = _sites(branchy_loop, branchy_trace)
    all_ids = {s.id for s in StructAll().build_pool(sites, None)}
    for budget in (0, 1, 2, 3):
        for weight in (0.0, 1.0, 3.0):
            sel = ReadPortAwareSelector(budget, weight)
            assert {s.id for s in sel.build_pool(sites, None)} <= all_ids


def test_read_port_budget_monotone(branchy_loop, branchy_trace):
    """A larger port budget never shrinks the pool."""
    sites = _sites(branchy_loop, branchy_trace)
    pools = [{s.id for s in
              ReadPortAwareSelector(b, 1.0).build_pool(sites, None)}
             for b in (0, 1, 2, 3)]
    for smaller, larger in zip(pools, pools[1:]):
        assert smaller <= larger


def test_read_port_serializing_sites_respect_budget(branchy_loop,
                                                    branchy_trace):
    sites = _sites(branchy_loop, branchy_trace)
    sel = ReadPortAwareSelector(port_budget=1)
    for site in sel.build_pool(sites, None):
        if site.candidate.serialization is not SerializationClass.NONE:
            assert site.candidate.serialization is \
                SerializationClass.BOUNDED
            assert len(site.candidate.ext_inputs) <= 1


def test_read_port_max_weight_drops_over_budget_sites(branchy_loop,
                                                      branchy_trace):
    """At pressure_weight >= MAX_EXT_INPUTS every over-budget site goes."""
    sites = _sites(branchy_loop, branchy_trace)
    sel = ReadPortAwareSelector(port_budget=0, pressure_weight=3.0)
    for site in sel.build_pool(sites, None):
        assert len(site.candidate.ext_inputs) == 0


# -- pinned pools over the golden workloads -----------------------------------

#: Recorded pool site ids per (golden workload, selector): the
#: Slack-Profile delay-model variants and the read-port budgets must keep
#: admitting exactly these sites.
PINNED_SELECTORS = {
    "slack-profile-full": lambda: SlackProfileSelector("full"),
    "slack-profile-delay": lambda: SlackProfileSelector("delay"),
    "slack-profile-sial": lambda: SlackProfileSelector("sial"),
    "slack-profile-full-measured":
        lambda: SlackProfileSelector("full", measured_latencies=True),
    "read-port-0-1.0": lambda: ReadPortAwareSelector(0, 1.0),
    "read-port-2-0.5": lambda: ReadPortAwareSelector(2, 0.5),
}

PINNED_POOLS = {
    "crc32": {
        "slack-profile-full": [3, 4, 5, 6, 7, 8, 12],
        "slack-profile-delay": [3, 4, 5, 6, 7, 8, 12],
        "slack-profile-sial": [3, 4, 5, 6, 7, 8, 9, 10, 12],
        "slack-profile-full-measured": [3, 4, 5, 6, 7, 8, 12],
        "read-port-0-1.0": [3, 8, 12],
        "read-port-2-0.5": [0, 1, 3, 6, 7, 8, 10, 11, 12],
    },
    "adpcm": {
        "slack-profile-full": [0, 9, 1, 2, 3, 4, 5, 6, 8, 10, 11, 12, 13, 14,
            16, 17],
        "slack-profile-delay": [0, 9, 1, 4, 5, 6, 8, 10, 11, 12, 13, 14, 17],
        "slack-profile-sial": [0, 9, 1, 3, 4, 5, 6, 8, 10, 11, 12, 13, 14, 16,
            17],
        "slack-profile-full-measured": [0, 9, 1, 2, 3, 4, 5, 6, 8, 10, 11, 12,
            13, 14, 16, 17],
        "read-port-0-1.0": [0, 9, 6, 14, 17],
        "read-port-2-0.5": [0, 9, 1, 6, 12, 13, 14, 17],
    },
    "fft": {
        "slack-profile-full": [0, 4, 3, 8, 11, 10, 13, 14, 15],
        "slack-profile-delay": [0, 4, 3, 8, 11, 10, 13, 15],
        "slack-profile-sial": [0, 4, 3, 5, 6, 8, 11, 9, 12, 10, 13, 14, 15],
        "slack-profile-full-measured": [0, 4, 3, 8, 11, 10, 13, 14, 15],
        "read-port-0-1.0": [0, 4, 15],
        "read-port-2-0.5": [0, 4, 1, 3, 5, 7, 15],
    },
    "gzip": {
        "slack-profile-full": [5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17],
        "slack-profile-delay": [5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 17],
        "slack-profile-sial": [5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 17],
        "slack-profile-full-measured": [5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
            16, 17],
        "read-port-0-1.0": [5, 6, 8, 11, 12, 15, 16, 17],
        "read-port-2-0.5": [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 14, 15, 16,
            17],
    },
}


@functools.lru_cache(maxsize=None)
def _golden_sites_and_profile(name):
    """Template sites and reduced-machine slack profile of ``name``."""
    program = benchmark(name).program("train")
    trace = _RUNNER.trace(name, "train")
    config = config_by_name("reduced")
    collector = SlackCollector(program, config_name=config.name,
                               input_name="train")
    OoOCore(config, trace.packed(), collector=collector,
            warm_caches=True).run()
    templates = build_templates(enumerate_candidates(program),
                                trace.dynamic_count_of())
    sites = [site for template in templates for site in template.sites]
    return sites, collector.profile()


@pytest.mark.parametrize("selector_key", sorted(PINNED_SELECTORS))
@pytest.mark.parametrize("name", sorted(PINNED_POOLS))
def test_pinned_pool_site_ids(name, selector_key):
    """Slack-Profile variants and read-port pools match the record."""
    sites, profile = _golden_sites_and_profile(name)
    pool = PINNED_SELECTORS[selector_key]().build_pool(sites, profile)
    assert [site.id for site in pool] == PINNED_POOLS[name][selector_key]
