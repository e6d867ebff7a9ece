"""The five mini-graph selectors of the paper (§3, §4) plus ablations.

Every selector produces a *starting pool* of sites; the shared greedy
budgeted procedure in :mod:`repro.minigraph.selection` then picks templates.
All selectors admit the shape-safe sites (no serialization potential) and
differ only in their treatment of potentially-serializing ones:

================  ==========================================================
Struct-All        admit every potentially-serializing site
Struct-None       admit none
Struct-Bounded    admit those whose output delay is structurally bounded
Slack-Profile     admit those rules #1–#4 predict to be harmless
Slack-Dynamic     admit all (Struct-All pool) — harmful sites are disabled
                  at run time by the hardware monitor
Read-Port         admit bounded sites within a register-read-port budget;
                  penalize over-budget shape-safe sites (searchable family)
================  ==========================================================

Slack-Profile's ablation variants (Figure 7): ``delay`` ignores rule #4
(rejects on any predicted output delay) and ``sial`` replaces delay
accounting with the operand-arrival-order heuristic of macro-op scheduling.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Set, Type

from .candidates import Candidate, enumerate_candidates
from .delay_model import assess
from .selection import MiniGraphPlan, select
from .serialization import SerializationClass
from .slack import SlackProfile
from .templates import MGSite, build_templates

#: Selector family registry: ``kind`` string -> class. Populated by
#: :func:`register_family`; the single source the spec round-trip
#: (:func:`selector_from_spec`) and the tuner's search space draw from.
SELECTOR_FAMILIES: Dict[str, Type["Selector"]] = {}


def register_family(cls: Type["Selector"]) -> Type["Selector"]:
    """Class decorator: register a selector family under its ``kind``."""
    if cls.kind in SELECTOR_FAMILIES:
        raise ValueError(f"duplicate selector kind {cls.kind!r}")
    SELECTOR_FAMILIES[cls.kind] = cls
    return cls


def selector_from_spec(spec: dict) -> "Selector":
    """Inverse of :meth:`Selector.spec` via the family registry."""
    params = dict(spec)
    kind = params.pop("kind", None)
    cls = SELECTOR_FAMILIES.get(kind)
    if cls is None:
        raise ValueError(f"unknown selector spec {spec!r}")
    return cls.from_params(params)


class Selector:
    """Base selector: named filter over the candidate site pool.

    Every family implements the uniform hyperparameter protocol:
    ``kind`` is the stable family id, :meth:`params` the JSON-scalar
    hyperparameters, and ``cls.from_params(sel.params())`` reconstructs
    a selector producing bit-identical plans. :meth:`spec` — the
    content-address component and cross-process wire format — is always
    ``{"kind": kind, **params()}``, so the tuner, store keys, and
    reports all derive from one source.
    """

    #: Stable family id (the ``kind`` field of :meth:`spec`).
    kind = "base"
    name = "base"
    #: Selectors that consult a slack profile set this.
    needs_profile = False

    def admit(self, site: MGSite, profile: Optional[SlackProfile]) -> bool:
        """Whether a potentially-serializing site joins the pool."""
        raise NotImplementedError

    def params(self) -> dict:
        """JSON-scalar hyperparameters (empty for knob-free families)."""
        return {}

    @classmethod
    def from_params(cls, params: dict) -> "Selector":
        """Rebuild a selector from :meth:`params` output."""
        return cls(**params)

    @property
    def display_name(self) -> str:
        """Stable human-readable name for tables and plots."""
        return self.name

    def spec(self) -> dict:
        """Canonical JSON-serializable parameter set.

        Used both as a content-address component (every parameter that
        can change the selection must appear) and to reconstruct the
        selector in scheduler worker processes
        (:func:`repro.exec.tasks.selector_from_spec`).
        """
        return {"kind": self.kind, **self.params()}

    def build_pool(self, sites: Iterable[MGSite],
                   profile: Optional[SlackProfile]) -> List[MGSite]:
        """Shape-safe sites plus the serializing ones :meth:`admit` takes."""
        pool = []
        for site in sites:
            if site.candidate.serialization is SerializationClass.NONE:
                pool.append(site)
            elif self.admit(site, profile):
                pool.append(site)
        return pool

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Selector {self.name}>"


@register_family
class StructAll(Selector):
    """Serialization-blind: maximize coverage (§3)."""

    kind = name = "struct-all"

    def admit(self, site: MGSite, profile) -> bool:
        """Admit everything."""
        return True


@register_family
class StructNone(Selector):
    """Conservative: reject all serialization potential (§3)."""

    kind = name = "struct-none"

    def admit(self, site: MGSite, profile) -> bool:
        """Admit nothing serializing."""
        return False


@register_family
class StructBounded(Selector):
    """Heuristic: admit only structurally bounded serialization (§4.2)."""

    kind = name = "struct-bounded"

    def admit(self, site: MGSite, profile) -> bool:
        """Admit only structurally bounded delay."""
        return site.candidate.serialization is SerializationClass.BOUNDED


@register_family
class SlackProfileSelector(Selector):
    """Quantitative selection from local slack profiles (§4.3).

    ``variant`` selects the model: ``"full"`` applies rules #1–#4;
    ``"delay"`` applies rules #1–#3 and rejects on any output delay
    (Slack-Profile-Delay in Figure 7); ``"sial"`` applies the
    operand-arrival heuristic (Slack-Profile-SIAL).

    ``measured_latencies`` enables the future-work extension from the
    paper's *mcf* footnote: rule #2 uses profiled (cache-aware) latencies
    instead of optimistic hit latencies.
    """

    kind = "slack-profile"
    needs_profile = True

    def __init__(self, variant: str = "full",
                 unprofiled_ok: bool = True,
                 measured_latencies: bool = False):
        if variant not in ("full", "delay", "sial"):
            raise ValueError(f"unknown Slack-Profile variant {variant!r}")
        self.variant = variant
        self.unprofiled_ok = unprofiled_ok
        self.measured_latencies = measured_latencies
        self.name = "slack-profile" if variant == "full" \
            else f"slack-profile-{variant}"
        if measured_latencies:
            self.name += "-measured"

    def admit(self, site: MGSite, profile: Optional[SlackProfile]) -> bool:
        """Rules #1–#4 (or the variant) against the slack profile."""
        if profile is None:
            raise ValueError(f"{self.name} requires a slack profile")
        assessment = assess(site.candidate, profile,
                            measured_latencies=self.measured_latencies)
        if assessment is None:
            # Candidate code never ran during profiling: its selection
            # frequency is zero anyway; admission is moot but configurable.
            return self.unprofiled_ok
        if self.variant == "full":
            return not assessment.degrades
        if self.variant == "delay":
            return not assessment.degrades_delay_only
        return not assessment.degrades_sial

    def params(self) -> dict:
        """All three knobs — ``unprofiled_ok`` is not encoded in the name."""
        return {"variant": self.variant,
                "unprofiled_ok": self.unprofiled_ok,
                "measured_latencies": self.measured_latencies}


@register_family
class SlackDynamicSelector(Selector):
    """Static side of Slack-Dynamic (§4.4): the aggressive Struct-All pool.

    Harmful mini-graphs are disabled at run time by
    :class:`repro.minigraph.dynamic.SlackDynamicPolicy`, which the harness
    attaches to the timing core when this selector is used.
    """

    kind = name = "slack-dynamic"

    def admit(self, site: MGSite, profile) -> bool:
        """Admit everything; pruning happens at run time."""
        return True


@register_family
class FixedSetSelector(Selector):
    """Admits exactly the given candidate sites (limit-study support)."""

    kind = name = "fixed-set"

    def __init__(self, allowed_site_ids: Set[int]):
        self.allowed = set(allowed_site_ids)

    def build_pool(self, sites: Iterable[MGSite], profile) -> List[MGSite]:
        """Exactly the allowed site ids, ignoring serialization class."""
        return [site for site in sites if site.id in self.allowed]

    def admit(self, site: MGSite, profile) -> bool:  # pragma: no cover
        return site.id in self.allowed

    def params(self) -> dict:
        return {"allowed": sorted(self.allowed)}

    @classmethod
    def from_params(cls, params: dict) -> "FixedSetSelector":
        return cls(set(params["allowed"]))


@register_family
class ReadPortAwareSelector(Selector):
    """Register-pressure-aware selection: score sites by read-port demand.

    A mini-graph template reads each *external* register input through a
    register-file read port at dispatch; templates with many external
    inputs are exactly the ones that defeat the PRF read-port-reduction
    schemes the related work targets. This family makes that pressure a
    first-class selection knob:

    - ``port_budget`` — external register inputs a site may demand
      "for free" (the ports the sharing scheme can always supply).
    - ``pressure_weight`` — how strongly demand above the budget is
      penalized. Each unit of pressure multiplies a site's value by
      ``1 - pressure_weight / MAX_EXT_INPUTS``; sites whose value drops
      to zero or below leave the pool.

    Potentially-serializing sites get no such discount: they must fit
    the budget outright (and be structurally bounded) to join the pool.
    Any pool subset is a legal plan, so the family passes the lockstep,
    plan-lint, and fuzz gates by construction.
    """

    kind = name = "read-port"

    #: Candidates expose at most three external register inputs
    #: (mini-graph encoding limit, templates.py).
    MAX_EXT_INPUTS = 3

    def __init__(self, port_budget: int = 2, pressure_weight: float = 1.0):
        port_budget = int(port_budget)
        pressure_weight = float(pressure_weight)
        if port_budget < 0:
            raise ValueError(f"port_budget must be >= 0, got {port_budget}")
        if pressure_weight < 0.0:
            raise ValueError(
                f"pressure_weight must be >= 0, got {pressure_weight}")
        self.port_budget = port_budget
        self.pressure_weight = pressure_weight

    @staticmethod
    def demand(site: MGSite) -> int:
        """Read-port demand: the site's external register input count."""
        return len(site.candidate.ext_inputs)

    def pressure(self, site: MGSite) -> int:
        """Demand above the port budget (0 for fitting sites)."""
        return max(0, self.demand(site) - self.port_budget)

    def score_scale(self, site: MGSite) -> float:
        """Value multiplier in [0, 1] after the pressure penalty."""
        penalty = self.pressure_weight * self.pressure(site) \
            / self.MAX_EXT_INPUTS
        return max(0.0, 1.0 - penalty)

    def admit(self, site: MGSite, profile) -> bool:
        """Serializing sites must be bounded *and* fit the budget."""
        if site.candidate.serialization is SerializationClass.UNBOUNDED:
            return False
        return self.pressure(site) == 0

    def build_pool(self, sites: Iterable[MGSite], profile) -> List[MGSite]:
        """Shape-safe sites keep a positive post-penalty score; the rest
        pass :meth:`admit`.
        """
        pool = []
        for site in sites:
            if site.candidate.serialization is SerializationClass.NONE:
                if self.score_scale(site) > 0.0:
                    pool.append(site)
            elif self.admit(site, profile):
                pool.append(site)
        return pool

    def params(self) -> dict:
        return {"port_budget": self.port_budget,
                "pressure_weight": self.pressure_weight}

    @property
    def display_name(self) -> str:
        return (f"read-port(b={self.port_budget},"
                f"w={self.pressure_weight:g})")


def make_plan(program, freq_counts: List[int], selector: Selector,
              profile: Optional[SlackProfile] = None, budget: int = 512,
              max_size: int = 4,
              candidates: Optional[List[Candidate]] = None,
              verify: Optional[bool] = None,
              sites: Optional[List[MGSite]] = None) -> MiniGraphPlan:
    """Enumerate, filter, and select mini-graphs for ``program``.

    ``freq_counts`` are per-static-PC dynamic execution counts from the
    profiling input (used both for template scores and, with profile-based
    selectors, for rule evaluation via ``profile``).

    ``sites`` lets callers that plan repeatedly over the same
    (program, trace) — fuzz sweeps, experiment matrices — reuse one
    ``build_templates`` pass: enumeration and template grouping are
    selector-independent, so the hoisted sites produce identical plans.
    When provided, ``candidates`` is not consulted.

    ``verify=True`` audits the resulting plan against the paper's
    structural contract (:func:`repro.check.lint.check_plan`) and raises
    :class:`repro.check.lint.PlanInvariantError` on any violation. The
    default consults the ``REPRO_CHECK_PLANS`` environment variable, so a
    whole run can be hardened without touching call sites.
    """
    if candidates is None and sites is None:
        candidates = enumerate_candidates(program, max_size=max_size)
    if sites is None:
        templates = build_templates(candidates, freq_counts)
        sites = [site for template in templates for site in template.sites]
    pool = selector.build_pool(sites, profile)
    plan = select(pool, budget=budget)
    if verify is None:
        verify = bool(os.environ.get("REPRO_CHECK_PLANS"))
    if verify:
        from ..check.lint import check_plan
        check_plan(program, plan, max_size=max_size, budget=budget)
    return plan
