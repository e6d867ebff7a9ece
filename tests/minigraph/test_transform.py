"""Outlining transform: binary layout and trace folding."""

from repro.check.lockstep import lockstep_check
from repro.isa.interp import execute
from repro.minigraph import (
    StructAll, empty_plan, enumerate_candidates, fold_trace, make_plan,
)
from repro.minigraph.selection import MiniGraphPlan
from repro.minigraph.templates import build_templates
from repro.minigraph.transform import MGHandleRecord, TransformedBinary

from tests.conftest import build_sum_loop


def _plan_for(program, trace):
    return make_plan(program, trace.dynamic_count_of(), StructAll())


def test_layout_compacts_binary(sum_loop, sum_trace):
    plan = _plan_for(sum_loop, sum_trace)
    assert plan.sites, "expected at least one selected site"
    binary = TransformedBinary(sum_loop, plan)
    embedded = sum(site.end - site.start for site in plan.sites)
    assert binary.new_length == len(sum_loop) - embedded + len(plan.sites)
    # PC map is monotonic and handles collapse to one slot.
    last = -1
    for pc in range(len(sum_loop)):
        assert binary.pc_map[pc] >= last
        last = binary.pc_map[pc]


def test_outlined_bodies_beyond_program(sum_loop, sum_trace):
    plan = _plan_for(sum_loop, sum_trace)
    binary = TransformedBinary(sum_loop, plan)
    outlined = binary.outlined_pc
    for site in plan.sites:
        assert outlined[site.start] >= binary.new_length
    spans = sorted((outlined[s.start],
                    outlined[s.start] + (s.end - s.start) + 1)
                   for s in plan.sites)
    for (_, end1), (start2, _) in zip(spans, spans[1:]):
        assert end1 <= start2  # outlined bodies do not collide


def test_fold_preserves_instruction_accounting(sum_loop, sum_trace):
    plan = _plan_for(sum_loop, sum_trace)
    records = fold_trace(sum_trace, plan)
    total = 0
    handles = 0
    for rec in records:
        if rec.kind == 1:
            total += len(rec.constituents)
            handles += 1
        else:
            total += 1
    assert total == len(sum_trace.records)
    assert handles > 0


def test_fold_with_empty_plan_is_identity_modulo_pcs(sum_trace):
    records = fold_trace(sum_trace, empty_plan())
    assert len(records) == len(sum_trace.records)
    for folded, original in zip(records, sum_trace.records):
        assert folded.kind == 0
        assert folded.pc == original.pc      # no compaction
        assert folded.op == original.op
        assert folded.addr == original.addr


def test_handle_interface_fields(sum_loop, sum_trace):
    plan = _plan_for(sum_loop, sum_trace)
    records = fold_trace(sum_trace, plan)
    handle = next(r for r in records if r.kind == 1)
    assert isinstance(handle, MGHandleRecord)
    candidate = handle.site.candidate
    assert handle.rd == candidate.out_reg
    assert len(handle.srcs) == len(candidate.ext_inputs)
    binary = TransformedBinary(sum_loop, plan)
    assert handle.pc == binary.handle_pc[handle.site.start]
    assert handle.outlined_pc == binary.outlined_pc[handle.site.start]
    if handle.site.template.has_load or handle.site.template.has_store:
        assert handle.addr >= 0
    else:
        assert handle.addr == -1


def test_handle_next_pc_continuity(sum_loop, sum_trace):
    """Each record's next_pc must equal the next record's pc."""
    plan = _plan_for(sum_loop, sum_trace)
    records = fold_trace(sum_trace, plan)
    for current, following in zip(records, records[1:]):
        assert current.next_pc == following.pc


def test_branch_in_handle_records_outcome(branchy_loop, branchy_trace):
    plan = make_plan(branchy_loop, branchy_trace.dynamic_count_of(),
                     StructAll())
    records = fold_trace(branchy_trace, plan)
    handles = [r for r in records if r.kind == 1
               and r.site.template.has_branch]
    if handles:  # branch-ended mini-graphs selected
        takens = {h.taken for h in handles}
        assert takens <= {True, False}
        for handle in handles:
            if not handle.taken:
                assert handle.next_pc == handle.pc + 1


def test_fold_is_deterministic(sum_loop, sum_trace):
    plan = _plan_for(sum_loop, sum_trace)
    first = fold_trace(sum_trace, plan)
    second = fold_trace(sum_trace, plan)
    assert [(r.pc, r.kind) for r in first] == \
        [(r.pc, r.kind) for r in second]


def _manual_plan(trace, picks):
    """A plan from hand-picked candidates (bypasses selection)."""
    templates = build_templates(list(picks), trace.dynamic_count_of())
    sites = [site for template in templates for site in template.sites]
    return MiniGraphPlan(sites, templates)


def _build_back_to_back():
    """Two independent 2-instruction groups with no gap between them."""
    from repro.isa import Assembler
    a = Assembler("b2b")
    a.data_zeros(2, label="out")
    out = a.data_addr("out")
    a.li("r1", 5)
    a.li("r2", 7)
    a.slli("r3", "r1", 1)    # group 1: r3 interior,
    a.add("r4", "r3", "r1")  #          r4 the live output
    a.slli("r5", "r2", 1)    # group 2, immediately adjacent
    a.add("r6", "r5", "r2")
    a.st("r4", "r0", out)
    a.st("r6", "r0", out + 1)
    a.halt()
    return a.build()


def test_fold_back_to_back_minigraphs():
    """Two immediately adjacent mini-graphs fold into adjacent handles
    with no singleton between them and an unbroken next_pc chain."""
    program = _build_back_to_back()
    trace = execute(program)
    candidates = enumerate_candidates(program)
    first, second = next(
        (a, b) for a in candidates for b in candidates
        if a.end == b.start)
    plan = _manual_plan(trace, [first, second])
    records = fold_trace(trace, plan)
    pairs = [(x, y) for x, y in zip(records, records[1:])
             if x.kind == 1 and y.kind == 1
             and x.site.start == first.start
             and y.site.start == second.start]
    assert pairs, "expected adjacent handle records"
    for x, y in pairs:
        assert x.next_pc == y.pc
        assert y.pc == x.pc + 1  # handles are one slot each, no gap
    total = sum(len(r.constituents) if r.kind == 1 else 1
                for r in records)
    assert total == len(trace.records)
    assert lockstep_check(program, plan, trace=trace).ok


def test_fold_minigraph_ending_block_at_taken_branch(sum_loop, sum_trace):
    """A mini-graph whose final constituent is the block-ending branch:
    the handle must carry the branch outcome and redirect to the
    transformed-space target when taken."""
    branch_pc, branch = next(
        (pc, inst) for pc, inst in enumerate(sum_loop.instructions)
        if inst.is_branch)
    candidate = next(c for c in enumerate_candidates(sum_loop)
                     if c.end == branch_pc + 1
                     and c.instructions()[-1].is_branch)
    plan = _manual_plan(sum_trace, [candidate])
    records = fold_trace(sum_trace, plan)
    handles = [r for r in records if r.kind == 1]
    assert handles
    outcomes = {h.taken for h in handles}
    assert outcomes == {True, False}  # loop back-edge plus final exit
    binary = TransformedBinary(sum_loop, plan)
    for handle in handles:
        if handle.taken:
            assert handle.next_pc == binary.pc_map[branch.imm]
        else:
            assert handle.next_pc == handle.pc + 1
    assert lockstep_check(sum_loop, plan, trace=sum_trace).ok


def test_fold_different_programs_independent():
    program_a = build_sum_loop(16, "a")
    program_b = build_sum_loop(24, "b")
    trace_a = execute(program_a)
    trace_b = execute(program_b)
    plan_a = _plan_for(program_a, trace_a)
    plan_b = _plan_for(program_b, trace_b)
    records_a = fold_trace(trace_a, plan_a)
    records_b = fold_trace(trace_b, plan_b)
    assert len(records_a) != len(records_b)


def _columns(packed):
    """Every byte a fold produces: the packed columns plus each handle's
    site identity and outlined-body pc."""
    names = ("kind", "pc", "op", "opclass", "latency", "rd", "addr",
             "taken", "next_pc", "srcs", "srcs_start")
    handles = [(id(rec.site), rec.outlined_pc)
               for rec in packed if rec.kind == 1]
    return [getattr(packed, name).tobytes() for name in names], handles


def test_concurrent_folds_of_shared_sites_stay_independent():
    """Two plans of one program share the runner's hoisted sites; folding
    them at the same time from two threads gives each its serial fold,
    and leaves the shared sites untouched."""
    import threading

    from repro.harness.runner import Runner
    from repro.minigraph.selectors import StructNone
    from repro.minigraph.templates import MGSite

    runner = Runner(max_insts=20_000)
    trace = runner.trace("adpcm")
    plans = [runner.plan("adpcm", StructAll()),
             runner.plan("adpcm", StructNone())]
    layouts = [TransformedBinary(trace.program, plan) for plan in plans]
    shared = [site for site in plans[0].sites
              if any(site is other for other in plans[1].sites)]
    # The race needs a site both plans select but lay out differently.
    assert any(layouts[0].handle_pc[site.start]
               != layouts[1].handle_pc[site.start]
               or layouts[0].outlined_pc[site.start]
               != layouts[1].outlined_pc[site.start] for site in shared)
    sites = runner._hoisted_sites("adpcm", "train", "train",
                                  runner.candidates("adpcm"),
                                  trace.dynamic_count_of())
    before = [[getattr(site, slot) for slot in MGSite.__slots__]
              for site in sites]
    serial = [_columns(fold_trace(trace, plan)) for plan in plans]

    rounds = 8
    barrier = threading.Barrier(2)
    folded = [[], []]

    def fold(which):
        for _ in range(rounds):
            barrier.wait()
            folded[which].append(_columns(fold_trace(trace, plans[which])))

    threads = [threading.Thread(target=fold, args=(which,))
               for which in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for which in (0, 1):
        assert folded[which] == [serial[which]] * rounds
    assert [[getattr(site, slot) for slot in MGSite.__slots__]
            for site in sites] == before
