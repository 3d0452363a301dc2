#include "core/simulator.hh"

#include <algorithm>

#include "common/logging.hh"
#include "telemetry/profiler.hh"

namespace mcd
{

namespace
{

using telemetry::Phase;
using telemetry::ScopedTimer;

/** Bumped whenever the checkpoint byte layout changes. */
constexpr std::uint64_t CHECKPOINT_FORMAT = 1;

/** Ordered erase of one sequence number from a queue. */
void
eraseSeq(std::vector<std::uint64_t> &queue, std::uint64_t seq)
{
    std::erase(queue, seq);
}

} // namespace

DomainId
controlledDomainId(int slot)
{
    switch (slot) {
      case CTL_INT: return DomainId::Integer;
      case CTL_FP:  return DomainId::FloatingPoint;
      case CTL_LS:  return DomainId::LoadStore;
      default: mcd_panic("bad controlled-domain slot %d", slot);
    }
}

Simulator::Simulator(const SimConfig &config, WorkloadGenerator &workload,
                     FrequencyController *controller)
    : config_(config), workload_(&workload), controller_(controller),
      dvfs_(config.dvfs),
      clocks_(dvfs_, config.clocks),
      energy_model_(config.energy,
                    config.clocks.mode == ClockMode::Mcd),
      power_(energy_model_),
      memory_(config.core.memory),
      int_regs_(config.core.intPhysRegs),
      fp_regs_(config.core.fpPhysRegs),
      rename_(int_regs_, fp_regs_),
      state_(config.core.robSize, config.core.lsqSize)
{
    if (controller_)
        controller_->onStart(clocks_);
    refreshBatchVoltages();
}

Volt
Simulator::voltage(DomainId domain) const
{
    return clocks_.clock(domain).voltage();
}

std::uint64_t
Simulator::lineOf(std::uint64_t addr) const
{
    return addr & ~static_cast<std::uint64_t>(
        config_.core.memory.l1i.lineBytes - 1);
}

int
Simulator::execLatency(OpClass cls) const
{
    const CoreConfig &c = config_.core;
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Call:
      case OpClass::Return:
      case OpClass::Nop:
        return c.intAluLatency;
      case OpClass::IntMult: return c.intMultLatency;
      case OpClass::IntDiv:  return c.intDivLatency;
      case OpClass::FpAdd:   return c.fpAddLatency;
      case OpClass::FpMult:  return c.fpMultLatency;
      case OpClass::FpDiv:   return c.fpDivLatency;
      case OpClass::FpSqrt:  return c.fpSqrtLatency;
      default:
        mcd_panic("no execution latency for op class %d",
                  static_cast<int>(cls));
    }
}

// ---------------------------------------------------------------------
// Batched energy accounting
// ---------------------------------------------------------------------

void
Simulator::flushPower() const
{
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        auto di = static_cast<std::size_t>(d);
        if (batch_.cycles[di]) {
            power_.chargeCycle(static_cast<DomainId>(d), batch_.volt[di],
                               batch_.cycles[di]);
            batch_.cycles[di] = 0;
        }
    }
    for (int s = 0; s < NUM_STRUCTURES; ++s) {
        auto si = static_cast<std::size_t>(s);
        for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
            auto di = static_cast<std::size_t>(d);
            if (batch_.accesses[si][di]) {
                power_.chargeAccess(static_cast<StructureId>(s),
                                    batch_.volt[di],
                                    batch_.accesses[si][di]);
                batch_.accesses[si][di] = 0;
            }
        }
    }
    if (batch_.memAccesses) {
        power_.chargeMemoryAccess(batch_.memAccesses);
        batch_.memAccesses = 0;
    }
}

void
Simulator::refreshBatchVoltages() const
{
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        auto di = static_cast<std::size_t>(d);
        const DomainClock &clock = clocks_.clock(static_cast<DomainId>(d));
        batch_.freq[di] = clock.frequency();
        batch_.volt[di] = clock.voltage();
    }
}

void
Simulator::syncBatchVoltages()
{
    bool changed = false;
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        if (clocks_.clock(static_cast<DomainId>(d)).frequency() !=
            batch_.freq[static_cast<std::size_t>(d)]) {
            changed = true;
            break;
        }
    }
    if (changed) {
        // Pending charges predate the voltage change; apply them at the
        // voltages they were incurred under, then re-cache.
        flushPower();
        refreshBatchVoltages();
    }
}

void
Simulator::chargeCycleB(DomainId domain)
{
    ++batch_.cycles[static_cast<std::size_t>(domainIndex(domain))];
    if (config_.powerPerOp)
        flushPower();
}

void
Simulator::chargeAccessB(StructureId structure, DomainId domain,
                         std::uint64_t count)
{
    batch_.accesses[static_cast<std::size_t>(structure)]
                   [static_cast<std::size_t>(domainIndex(domain))] +=
        count;
    if (config_.powerPerOp)
        flushPower();
}

void
Simulator::chargeMemB()
{
    ++batch_.memAccesses;
    if (config_.powerPerOp)
        flushPower();
}

// ---------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------

void
Simulator::run(std::uint64_t instructions)
{
    runTo(state_.committed + instructions);
}

void
Simulator::runTo(std::uint64_t target)
{
    while (state_.committed < target)
        step();
}

void
Simulator::step()
{
    if (clocks_.mode() == ClockMode::Synchronous) {
        DomainClock &clock = clocks_.clock(DomainId::FrontEnd);
        Tick edge = clock.advance();
        state_.now = edge;
        syncBatchVoltages();
        // Execution domains tick before the front end so same-edge
        // completion -> commit and dispatch -> next-edge issue orderings
        // match a conventional synchronous pipeline.
        tickDomain(DomainId::Integer, edge);
        tickDomain(DomainId::FloatingPoint, edge);
        tickDomain(DomainId::LoadStore, edge);
        tickDomain(DomainId::FrontEnd, edge);
        return;
    }

    static constexpr DomainId ORDER[] = {
        DomainId::Integer, DomainId::FloatingPoint,
        DomainId::LoadStore, DomainId::FrontEnd,
    };
    DomainId best = ORDER[0];
    Tick best_edge = clocks_.clock(best).nextEdge();
    for (int i = 1; i < NUM_CLOCKED_DOMAINS; ++i) {
        Tick t = clocks_.clock(ORDER[i]).nextEdge();
        if (t < best_edge) {
            best = ORDER[i];
            best_edge = t;
        }
    }
    Tick edge = clocks_.clock(best).advance();
    state_.now = edge;
    syncBatchVoltages();
    tickDomain(best, edge);
}

void
Simulator::tickDomain(DomainId domain, Tick edge)
{
    chargeCycleB(domain);

    switch (domain) {
      case DomainId::FrontEnd:
        ++state_.feCycles;
        state_.robOccupancySum += static_cast<double>(state_.robCount());
        frontEndTick(edge);
        break;
      case DomainId::Integer:
        state_.ivOccupancySum[CTL_INT] +=
            static_cast<double>(state_.intIq.size());
        ++state_.ivCycles[CTL_INT];
        if (!state_.intIq.empty() || !state_.intExec.empty())
            ++state_.ivBusyCycles[CTL_INT];
        integerTick(edge);
        break;
      case DomainId::FloatingPoint:
        state_.ivOccupancySum[CTL_FP] +=
            static_cast<double>(state_.fpIq.size());
        ++state_.ivCycles[CTL_FP];
        if (!state_.fpIq.empty() || !state_.fpExec.empty())
            ++state_.ivBusyCycles[CTL_FP];
        fpTick(edge);
        break;
      case DomainId::LoadStore:
        state_.ivOccupancySum[CTL_LS] +=
            static_cast<double>(state_.lsq.size());
        ++state_.ivCycles[CTL_LS];
        if (!state_.lsq.empty())
            ++state_.ivBusyCycles[CTL_LS];
        loadStoreTick(edge);
        break;
      default:
        mcd_panic("cannot tick external domain");
    }
}

// ---------------------------------------------------------------------
// Front end: commit, then fetch + rename + dispatch
// ---------------------------------------------------------------------

void
Simulator::frontEndTick(Tick edge)
{
    commitStage(edge);
    fetchAndDispatch(edge);
}

void
Simulator::commitStage(Tick edge)
{
    // Profiler phases nest (the interval boundary fires inside this
    // loop), so sim.commit's time includes sim.interval's — the
    // breakdown is hierarchical, not a partition.
    ScopedTimer timer(Phase::SimCommit);
    // No run-target ceiling here: a run may overshoot its commit target
    // by the tail of one retire group, which keeps stopping behavior-
    // free (runTo composes exactly, the checkpoint contract relies on
    // it).
    int budget = config_.core.retireWidth;
    while (budget > 0 && state_.robHead != state_.nextSeq) {
        Inst &head = state_.inst(state_.robHead);
        if (!head.completed)
            break;
        if (!clocks_.visible(head.execDomain, head.completeTime,
                             DomainId::FrontEnd, edge))
            break;

        head.committed = true;
        chargeAccessB(StructureId::Rob, DomainId::FrontEnd);

        if (isControlClass(head.op.cls)) {
            bpred_.update(head.op.pc, head.op.taken, head.op.target,
                          head.op.cls == OpClass::Call,
                          head.op.cls == OpClass::Return);
        }
        if (head.hasDst() && head.oldPhysDst >= 0) {
            (head.dstIsFp() ? fp_regs_ : int_regs_).free(head.oldPhysDst);
        }
        if (head.isLoad) {
            head.lsqFreed = true;
            eraseSeq(state_.lsq, head.seq);
        }
        if (head.isStore)
            head.committedStore = true;

        ++state_.robHead;
        ++state_.committed;
        --budget;

        if (state_.committed - state_.intervalStartInsts >=
            static_cast<std::uint64_t>(config_.core.intervalInstructions))
            handleIntervalBoundary(edge);
    }
    state_.retireHead();
}

void
Simulator::handleIntervalBoundary(Tick edge)
{
    ScopedTimer timer(Phase::SimInterval);
    flushPower();

    IntervalStats stats;
    stats.index = state_.intervalIndex++;
    stats.instructions = state_.committed - state_.intervalStartInsts;
    stats.feCycles = state_.feCycles - state_.intervalStartFeCycles;
    stats.ipc = stats.feCycles
        ? static_cast<double>(stats.instructions) /
          static_cast<double>(stats.feCycles)
        : 0.0;
    stats.startTime = state_.intervalStartTime;
    stats.endTime = edge;
    stats.chipEnergy = power_.chipEnergy() - state_.intervalStartEnergy;

    for (int slot = 0; slot < NUM_CONTROLLED; ++slot) {
        auto si = static_cast<std::size_t>(slot);
        DomainIntervalStats &d = stats.domains[si];
        d.queueUtilization = stats.instructions
            ? state_.ivOccupancySum[si] /
              static_cast<double>(stats.instructions)
            : 0.0;
        d.avgOccupancy = state_.ivCycles[si]
            ? state_.ivOccupancySum[si] /
              static_cast<double>(state_.ivCycles[si])
            : 0.0;
        d.issued = state_.ivIssued[si];
        d.cycles = state_.ivCycles[si];
        d.busyCycles = state_.ivBusyCycles[si];
        d.frequency =
            clocks_.clock(controlledDomainId(slot)).targetFrequency();
    }

    stats.robUtilization = stats.instructions
        ? state_.robOccupancySum / static_cast<double>(stats.instructions)
        : 0.0;
    stats.avgRobOccupancy = stats.feCycles
        ? state_.robOccupancySum / static_cast<double>(stats.feCycles)
        : 0.0;
    stats.feFrequency =
        clocks_.clock(DomainId::FrontEnd).targetFrequency();

    if (controller_)
        controller_->onInterval(stats, clocks_);
    if (interval_observer_)
        interval_observer_(stats);
    // The controller may have jumped a frequency with no slew.
    syncBatchVoltages();

    state_.resetIntervalAccum();
    state_.intervalStartInsts = state_.committed;
    state_.intervalStartFeCycles = state_.feCycles;
    state_.intervalStartTime = edge;
    state_.intervalStartEnergy = power_.chipEnergy();
}

bool
Simulator::resourcesAvailable(const MicroOp &op) const
{
    const CoreConfig &c = config_.core;
    if (state_.robCount() >= c.robSize)
        return false;
    if (op.dst > 0) {
        const PhysRegFile &file =
            RenameMap::isFp(op.dst) ? fp_regs_ : int_regs_;
        if (file.freeCount() == 0)
            return false;
    }
    if (isMemClass(op.cls))
        return static_cast<int>(state_.lsq.size()) < c.lsqSize;
    if (isFpClass(op.cls))
        return static_cast<int>(state_.fpIq.size()) < c.fpIqSize;
    return static_cast<int>(state_.intIq.size()) < c.intIqSize;
}

void
Simulator::fetchAndDispatch(Tick edge)
{
    ScopedTimer timer(Phase::SimFetch);
    const CoreConfig &c = config_.core;

    if (state_.stallBranchSeq != NO_SEQ) {
        if (state_.branchResolveTime == MAX_TICK)
            return; // branch still executing
        if (!clocks_.visible(state_.branchResolveDomain,
                             state_.branchResolveTime,
                             DomainId::FrontEnd, edge))
            return; // redirect has not crossed into the front end yet
        if (state_.redirectPenaltyLeft > 0) {
            --state_.redirectPenaltyLeft;
            // Wrong-path fetch shadow: the fetch engine keeps running.
            chargeAccessB(StructureId::Icache, DomainId::FrontEnd);
            return;
        }
        state_.stallBranchSeq = NO_SEQ;
        state_.branchResolveTime = MAX_TICK;
    }

    if (state_.icacheStallUntil > edge)
        return;

    bool accessed_line = false;
    for (int budget = c.decodeWidth; budget > 0; --budget) {
        if (!state_.havePendingOp) {
            state_.pendingOp = workload_->next();
            state_.havePendingOp = true;
        }
        const MicroOp &op = state_.pendingOp;
        if (!resourcesAvailable(op))
            break;

        std::uint64_t line = lineOf(op.pc);
        if (line != state_.lastFetchLine) {
            if (accessed_line)
                break; // one I-cache line per fetch cycle
            accessed_line = true;
            chargeAccessB(StructureId::Icache, DomainId::FrontEnd);
            MemAccessOutcome outcome = memory_.accessInst(op.pc);
            state_.lastFetchLine = line;
            if (outcome.level != MemLevel::L1) {
                chargeAccessB(
                    StructureId::L2Cache, DomainId::LoadStore,
                    static_cast<std::uint64_t>(outcome.l2Accesses));
                Tick ls_period = periodFromFreq(
                    clocks_.clock(DomainId::LoadStore).frequency());
                Tick done = edge +
                    config_.core.memory.l2Latency * ls_period;
                for (int m = 0; m < outcome.memAccesses; ++m) {
                    done = memory_.memory().schedule(done);
                    chargeMemB();
                }
                state_.icacheStallUntil = done + clocks_.syncWindow();
                break;
            }
        }

        if (!dispatchOne(op, edge))
            break;
        state_.havePendingOp = false;

        const Inst &inst = state_.inst(state_.nextSeq - 1);
        if (isControlClass(op.cls)) {
            if (inst.mispredicted) {
                state_.stallBranchSeq = inst.seq;
                state_.redirectPenaltyLeft = c.branchMispredictPenalty;
                state_.branchResolveTime = MAX_TICK;
                break;
            }
            if (op.taken)
                break; // redirect to the predicted target next cycle
        }
    }
}

bool
Simulator::dispatchOne(const MicroOp &op, Tick edge)
{
    Inst &inst = state_.allocate();
    inst.op = op;
    inst.dispatchTime = edge;
    inst.isLoad = isLoadClass(op.cls);
    inst.isStore = isStoreClass(op.cls);
    inst.execDomain = isMemClass(op.cls) ? DomainId::LoadStore
        : isFpClass(op.cls)              ? DomainId::FloatingPoint
                                         : DomainId::Integer;

    inst.physA = rename_.lookup(op.srcA);
    inst.physB = rename_.lookup(op.srcB);

    if (isControlClass(op.cls)) {
        state_.branches.inc();
        chargeAccessB(StructureId::BranchPredictor, DomainId::FrontEnd);
        BranchPrediction pred = bpred_.predict(
            op.pc, op.cls == OpClass::Call, op.cls == OpClass::Return,
            op.fallthrough());
        bool correct = pred.predictTaken == op.taken &&
            (!op.taken || pred.target == op.target);
        inst.mispredicted = !correct;
        if (!correct)
            state_.mispredicts.inc();
    }

    if (op.dst > 0) {
        PhysRegFile &file =
            RenameMap::isFp(op.dst) ? fp_regs_ : int_regs_;
        int phys = file.alloc();
        if (phys < 0)
            mcd_panic("dispatch without a free physical register");
        inst.physDst = phys;
        inst.oldPhysDst = rename_.rename(op.dst, phys);
    }

    chargeAccessB(StructureId::RenameTable, DomainId::FrontEnd);
    chargeAccessB(StructureId::Rob, DomainId::FrontEnd);
    // ROB membership is implicit: every live seq >= robHead is in it.

    if (isMemClass(op.cls)) {
        state_.lsq.push_back(inst.seq);
        chargeAccessB(StructureId::Lsq, DomainId::LoadStore);
        state_.loads.inc(inst.isLoad ? 1 : 0);
        state_.stores.inc(inst.isStore ? 1 : 0);
    } else if (isFpClass(op.cls)) {
        state_.fpIq.push_back(inst.seq);
        chargeAccessB(StructureId::FpIssueQueue,
                      DomainId::FloatingPoint);
    } else {
        state_.intIq.push_back(inst.seq);
        chargeAccessB(StructureId::IntIssueQueue, DomainId::Integer);
    }
    return true;
}

// ---------------------------------------------------------------------
// Execution domains
// ---------------------------------------------------------------------

bool
Simulator::regReady(int logical, int phys, DomainId domain,
                    Tick edge) const
{
    if (logical <= 0)
        return true;
    const PhysRegFile &file =
        RenameMap::isFp(logical) ? fp_regs_ : int_regs_;
    return file.readyAt(phys, domain, edge, clocks_);
}

bool
Simulator::operandsReady(const Inst &inst, DomainId domain,
                         Tick edge) const
{
    return regReady(inst.op.srcA, inst.physA, domain, edge) &&
           regReady(inst.op.srcB, inst.physB, domain, edge);
}

void
Simulator::completeInst(Inst &inst, DomainId domain, Tick edge)
{
    inst.completed = true;
    inst.completeTime = edge;
    if (inst.physDst >= 0) {
        PhysRegFile &file =
            inst.dstIsFp() ? fp_regs_ : int_regs_;
        file.markWritten(inst.physDst, edge, domain);
        chargeAccessB(inst.dstIsFp() ? StructureId::FpRegFile
                                     : StructureId::IntRegFile,
                      domain);
        chargeAccessB(StructureId::ResultBus, domain);
    }
    if (inst.usesMshr && inst.isLoad) {
        --state_.mshrInUse;
        inst.usesMshr = false;
    }
    if (inst.mispredicted && isControlClass(inst.op.cls)) {
        state_.branchResolveTime = edge;
        state_.branchResolveDomain = domain;
    }
}

void
Simulator::processCompletions(std::vector<std::uint64_t> &exec_list,
                              DomainId domain, Tick edge)
{
    ScopedTimer timer(Phase::SimWakeup);
    for (std::size_t i = 0; i < exec_list.size();) {
        Inst &inst = state_.inst(exec_list[i]);
        if (inst.remainingCycles > 0)
            --inst.remainingCycles;
        if (inst.remainingCycles == 0 &&
            (inst.absDoneTime == MAX_TICK || edge >= inst.absDoneTime)) {
            if (inst.isStore && inst.writeIssued) {
                // A committed store write finishing: free the LSQ slot.
                inst.lsqFreed = true;
                if (inst.usesMshr) {
                    --state_.mshrInUse;
                    inst.usesMshr = false;
                }
                eraseSeq(state_.lsq, inst.seq);
            } else {
                completeInst(inst, domain, edge);
            }
            exec_list[i] = exec_list.back();
            exec_list.pop_back();
        } else {
            ++i;
        }
    }
}

void
Simulator::integerTick(Tick edge)
{
    if (state_.intDivBusy > 0)
        --state_.intDivBusy;
    processCompletions(state_.intExec, DomainId::Integer, edge);
    issueInteger(edge);
}

void
Simulator::fpTick(Tick edge)
{
    if (state_.fpDivBusy > 0)
        --state_.fpDivBusy;
    processCompletions(state_.fpExec, DomainId::FloatingPoint, edge);
    issueFp(edge);
}

void
Simulator::issueInteger(Tick edge)
{
    ScopedTimer timer(Phase::SimIssueInt);
    const CoreConfig &c = config_.core;
    std::vector<std::uint64_t> &q = state_.intIq;
    int budget = c.intIssueWidth;
    int alu_slots = c.intAluCount;
    int mult_slots = state_.intDivBusy == 0 ? 1 : 0;

    for (std::size_t i = 0; i < q.size() && budget > 0;) {
        Inst &inst = state_.inst(q[i]);
        // Queue-write latency: the entry is latched into the issue
        // queue on the first domain edge that satisfies the sync rule
        // and becomes issue-eligible the following edge.
        if (!inst.enqueued) {
            if (clocks_.visible(DomainId::FrontEnd, inst.dispatchTime,
                                DomainId::Integer, edge))
                inst.enqueued = true;
            ++i;
            continue;
        }
        if (!operandsReady(inst, DomainId::Integer, edge)) {
            ++i;
            continue;
        }

        OpClass cls = inst.op.cls;
        if (cls == OpClass::IntMult) {
            if (mult_slots == 0) {
                ++i;
                continue;
            }
            --mult_slots;
            chargeAccessB(StructureId::IntMult, DomainId::Integer);
        } else if (cls == OpClass::IntDiv) {
            if (mult_slots == 0) {
                ++i;
                continue;
            }
            mult_slots = 0;
            state_.intDivBusy = c.intDivLatency;
            chargeAccessB(StructureId::IntMult, DomainId::Integer);
        } else {
            if (alu_slots == 0) {
                ++i;
                continue;
            }
            --alu_slots;
            chargeAccessB(StructureId::IntAlu, DomainId::Integer);
        }

        inst.issued = true;
        inst.remainingCycles = execLatency(cls);
        state_.intExec.push_back(inst.seq);
        chargeAccessB(StructureId::IntIssueQueue, DomainId::Integer);
        int reads = (inst.op.srcA > 0 ? 1 : 0) +
                    (inst.op.srcB > 0 ? 1 : 0);
        chargeAccessB(StructureId::IntRegFile, DomainId::Integer,
                      static_cast<std::uint64_t>(reads));
        ++state_.ivIssued[CTL_INT];
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
        --budget;
    }
}

void
Simulator::issueFp(Tick edge)
{
    ScopedTimer timer(Phase::SimIssueFp);
    const CoreConfig &c = config_.core;
    std::vector<std::uint64_t> &q = state_.fpIq;
    int budget = c.fpIssueWidth;
    int alu_slots = c.fpAluCount;
    int mult_slots = state_.fpDivBusy == 0 ? 1 : 0;

    for (std::size_t i = 0; i < q.size() && budget > 0;) {
        Inst &inst = state_.inst(q[i]);
        if (!inst.enqueued) {
            if (clocks_.visible(DomainId::FrontEnd, inst.dispatchTime,
                                DomainId::FloatingPoint, edge))
                inst.enqueued = true;
            ++i;
            continue;
        }
        if (!operandsReady(inst, DomainId::FloatingPoint, edge)) {
            ++i;
            continue;
        }

        OpClass cls = inst.op.cls;
        if (cls == OpClass::FpMult) {
            if (mult_slots == 0) {
                ++i;
                continue;
            }
            --mult_slots;
            chargeAccessB(StructureId::FpMult, DomainId::FloatingPoint);
        } else if (cls == OpClass::FpDiv || cls == OpClass::FpSqrt) {
            if (mult_slots == 0) {
                ++i;
                continue;
            }
            mult_slots = 0;
            state_.fpDivBusy = cls == OpClass::FpDiv ? c.fpDivLatency
                                                     : c.fpSqrtLatency;
            chargeAccessB(StructureId::FpMult, DomainId::FloatingPoint);
        } else {
            if (alu_slots == 0) {
                ++i;
                continue;
            }
            --alu_slots;
            chargeAccessB(StructureId::FpAlu, DomainId::FloatingPoint);
        }

        inst.issued = true;
        inst.remainingCycles = execLatency(cls);
        state_.fpExec.push_back(inst.seq);
        chargeAccessB(StructureId::FpIssueQueue,
                      DomainId::FloatingPoint);
        int reads = (inst.op.srcA > 0 ? 1 : 0) +
                    (inst.op.srcB > 0 ? 1 : 0);
        chargeAccessB(StructureId::FpRegFile, DomainId::FloatingPoint,
                      static_cast<std::uint64_t>(reads));
        ++state_.ivIssued[CTL_FP];
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
        --budget;
    }
}

// ---------------------------------------------------------------------
// Load/store domain
// ---------------------------------------------------------------------

bool
Simulator::olderStoreBlocks(const Inst &load, const Inst *&forward) const
{
    forward = nullptr;
    std::uint64_t load_word = load.op.memAddr >> 3;
    for (std::uint64_t seq : state_.lsq) {
        if (seq >= load.seq)
            break;
        const Inst &p = state_.inst(seq);
        if (!p.isStore)
            continue;
        if (!p.addrKnown)
            return true; // conservative disambiguation
        if ((p.op.memAddr >> 3) == load_word) {
            if (!p.dataReady)
                return true; // matching store, data not yet ready
            forward = &p;    // newest matching store wins
        }
    }
    return false;
}

void
Simulator::startDataAccess(Inst &inst, Tick edge, bool is_write)
{
    const CoreConfig &c = config_.core;

    MemAccessOutcome outcome =
        memory_.accessData(inst.op.memAddr, is_write);
    chargeAccessB(StructureId::Dcache, DomainId::LoadStore);
    chargeAccessB(StructureId::L2Cache, DomainId::LoadStore,
                  static_cast<std::uint64_t>(outcome.l2Accesses));

    int cycles = c.memory.l1Latency;
    Tick abs_done = MAX_TICK;
    if (outcome.level != MemLevel::L1) {
        cycles += c.memory.l2Latency;
        ++state_.mshrInUse;
        inst.usesMshr = true;
    }
    if (outcome.level == MemLevel::Memory) {
        Tick ls_period = periodFromFreq(
            clocks_.clock(DomainId::LoadStore).frequency());
        Tick request = edge + cycles * ls_period;
        for (int m = 0; m < outcome.memAccesses; ++m) {
            abs_done = memory_.memory().schedule(request);
            chargeMemB();
        }
        // Main memory is its own clock domain: crossing back into the
        // load/store domain pays the synchronization window.
        abs_done += clocks_.syncWindow();
    }

    inst.issued = true;
    inst.remainingCycles = cycles;
    inst.absDoneTime = abs_done;
    if (is_write)
        inst.writeIssued = true;
    else
        inst.memIssued = true;
    state_.lsExec.push_back(inst.seq);
}

void
Simulator::issueLoadStore(Tick edge)
{
    ScopedTimer timer(Phase::SimIssueLs);
    const CoreConfig &c = config_.core;
    int budget = c.memIssueWidth;

    for (std::size_t i = 0;
         i < state_.lsq.size() && budget > 0; ++i) {
        Inst &inst = state_.inst(state_.lsq[i]);
        if (!inst.enqueued) {
            if (clocks_.visible(DomainId::FrontEnd, inst.dispatchTime,
                                DomainId::LoadStore, edge))
                inst.enqueued = true;
            continue;
        }

        if (inst.isStore) {
            if (!inst.addrKnown &&
                regReady(inst.op.srcA, inst.physA, DomainId::LoadStore,
                         edge)) {
                inst.addrKnown = true; // AGU operation
                chargeAccessB(StructureId::Lsq, DomainId::LoadStore);
                --budget;
            }
            if (!inst.dataReady &&
                regReady(inst.op.srcB, inst.physB, DomainId::LoadStore,
                         edge))
                inst.dataReady = true;
            if (inst.addrKnown && inst.dataReady && !inst.completed) {
                inst.completed = true;
                inst.completeTime = edge;
                inst.execDomain = DomainId::LoadStore;
                ++state_.ivIssued[CTL_LS];
            }
            continue;
        }

        if (!inst.isLoad || inst.memIssued)
            continue;
        if (!regReady(inst.op.srcA, inst.physA, DomainId::LoadStore,
                      edge))
            continue;

        const Inst *forward = nullptr;
        if (olderStoreBlocks(inst, forward))
            continue;

        if (forward) {
            inst.memIssued = true;
            inst.forwarded = true;
            inst.remainingCycles = 1;
            state_.lsExec.push_back(inst.seq);
            chargeAccessB(StructureId::Lsq, DomainId::LoadStore);
            ++state_.ivIssued[CTL_LS];
            --budget;
            continue;
        }

        bool hit = memory_.l1d().probe(inst.op.memAddr);
        if (!hit && state_.mshrInUse >= c.mshrCount)
            continue; // no MSHR free; retry next cycle
        chargeAccessB(StructureId::Lsq, DomainId::LoadStore);
        startDataAccess(inst, edge, false);
        ++state_.ivIssued[CTL_LS];
        --budget;
    }

    // Drain committed stores into the cache with leftover bandwidth.
    for (std::size_t i = 0;
         i < state_.lsq.size() && budget > 0; ++i) {
        Inst &inst = state_.inst(state_.lsq[i]);
        if (!inst.isStore || !inst.committedStore || inst.writeIssued)
            continue;
        bool hit = memory_.l1d().probe(inst.op.memAddr);
        if (!hit && state_.mshrInUse >= c.mshrCount)
            break; // stores drain in order
        chargeAccessB(StructureId::Lsq, DomainId::LoadStore);
        startDataAccess(inst, edge, true);
        --budget;
    }
}

void
Simulator::loadStoreTick(Tick edge)
{
    processCompletions(state_.lsExec, DomainId::LoadStore, edge);
    issueLoadStore(edge);
    state_.retireHead();
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

void
Simulator::engageController(FrequencyController *controller)
{
    flushPower();
    controller_ = controller;
    if (controller_)
        controller_->onStart(clocks_);
    syncBatchVoltages();
}

void
Simulator::resetMeasurement()
{
    // Pending batched charges predate the reset; drop them along with
    // the accumulators (identical to per-op accounting, where they
    // would already have been added and then zeroed here).
    batch_.cycles.fill(0);
    for (auto &per_domain : batch_.accesses)
        per_domain.fill(0);
    batch_.memAccesses = 0;
    power_.reset();

    state_.measCommittedBase = state_.committed;
    state_.measFeCyclesBase = state_.feCycles;
    state_.measTimeBase = state_.now;
    state_.branches.reset();
    state_.mispredicts.reset();
    state_.loads.reset();
    state_.stores.reset();
    state_.resetIntervalAccum();
    state_.intervalIndex = 0;
    state_.intervalStartInsts = state_.committed;
    state_.intervalStartFeCycles = state_.feCycles;
    state_.intervalStartTime = state_.now;
    state_.intervalStartEnergy = 0.0; // power_ was just reset
}

// ---------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------

void
Simulator::saveCheckpoint(std::string &out) const
{
    ScopedTimer timer(Phase::CkptSave);
    serial::appendU64(out, CHECKPOINT_FORMAT);
    state_.saveState(out);
    clocks_.saveState(out);
    memory_.saveState(out);
    bpred_.saveState(out);
    int_regs_.saveState(out);
    fp_regs_.saveState(out);
    rename_.saveState(out);
    power_.saveState(out);
    // Pending charge batch: serialized rather than flushed, so the
    // resumed run flushes at the same points (and therefore sums the
    // same floating-point terms in the same order) as an unbroken run.
    for (std::uint64_t cycles : batch_.cycles)
        serial::appendU64(out, cycles);
    for (const auto &per_domain : batch_.accesses)
        for (std::uint64_t count : per_domain)
            serial::appendU64(out, count);
    serial::appendU64(out, batch_.memAccesses);
    workload_->saveState(out);
}

bool
Simulator::restoreCheckpoint(serial::Reader &in)
{
    ScopedTimer timer(Phase::CkptRestore);
    if (in.readU64() != CHECKPOINT_FORMAT)
        return false;
    if (!state_.loadState(in))
        return false;
    if (!clocks_.loadState(in))
        return false;
    if (!memory_.loadState(in))
        return false;
    if (!bpred_.loadState(in))
        return false;
    if (!int_regs_.loadState(in))
        return false;
    if (!fp_regs_.loadState(in))
        return false;
    if (!rename_.loadState(in))
        return false;
    if (!power_.loadState(in))
        return false;
    for (std::uint64_t &cycles : batch_.cycles)
        cycles = in.readU64();
    for (auto &per_domain : batch_.accesses)
        for (std::uint64_t &count : per_domain)
            count = in.readU64();
    batch_.memAccesses = in.readU64();
    if (!workload_->loadState(in))
        return false;
    // Voltage caches are derived state: recompute from the restored
    // clocks (cur_freq round-trips bit-exactly, so these match too).
    refreshBatchVoltages();
    return in.ok();
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

void
Simulator::dumpStats(StatDump &dump) const
{
    SimStats s = stats(); // flushes pending charges
    dump.set("run.instructions", static_cast<double>(s.instructions));
    dump.set("run.fe_cycles", static_cast<double>(s.feCycles));
    dump.set("run.time_ps", static_cast<double>(s.time));
    dump.set("run.cpi", s.cpi);
    dump.set("run.epi_nj", s.epi);
    dump.set("run.chip_energy_nj", s.chipEnergy);

    dump.set("bpred.branches", static_cast<double>(s.branches));
    dump.set("bpred.mispredicts", static_cast<double>(s.mispredicts));
    dump.set("bpred.accuracy",
             s.branches ? 1.0 - static_cast<double>(s.mispredicts) /
                                    static_cast<double>(s.branches)
                        : 0.0);

    dump.set("mem.loads", static_cast<double>(s.loads));
    dump.set("mem.stores", static_cast<double>(s.stores));
    dump.set("mem.l1d_miss_rate", memory_.l1d().missRate());
    dump.set("mem.l1i_miss_rate", memory_.l1i().missRate());
    dump.set("mem.l2_miss_rate", memory_.l2().missRate());
    dump.set("mem.main_transfers",
             static_cast<double>(memory_.memory().transfers()));
    dump.set("mem.channel_queueing_ps",
             static_cast<double>(memory_.memory().queueingTime()));

    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        auto id = static_cast<DomainId>(d);
        std::string prefix = std::string("domain.") + domainName(id);
        const DomainClock &clock = clocks_.clock(id);
        dump.set(prefix + ".cycles",
                 static_cast<double>(clock.cycles()));
        dump.set(prefix + ".frequency_hz", clock.frequency());
        dump.set(prefix + ".voltage", clock.voltage());
        dump.set(prefix + ".freq_changes",
                 static_cast<double>(clock.frequencyChanges()));
        dump.set(prefix + ".energy_nj", power_.domainEnergy(id));
        dump.set(prefix + ".base_energy_nj",
                 power_.domainBaseEnergy(id));
    }

    for (int st = 0; st < NUM_STRUCTURES; ++st) {
        auto id = static_cast<StructureId>(st);
        dump.set(std::string("structure.") + structureName(id) +
                     ".energy_nj",
                 power_.structureEnergy(id));
    }
    dump.set("external.energy_nj", power_.externalEnergy());
}

SimStats
Simulator::stats() const
{
    flushPower();
    SimStats s;
    s.instructions = state_.committed - state_.measCommittedBase;
    s.feCycles = state_.feCycles - state_.measFeCyclesBase;
    s.time = state_.now - state_.measTimeBase;
    s.chipEnergy = power_.chipEnergy();
    s.cpi = s.instructions
        ? static_cast<double>(s.feCycles) /
          static_cast<double>(s.instructions)
        : 0.0;
    s.epi = s.instructions
        ? s.chipEnergy / static_cast<double>(s.instructions)
        : 0.0;
    s.branches = state_.branches.value();
    s.mispredicts = state_.mispredicts.value();
    s.loads = state_.loads.value();
    s.stores = state_.stores.value();
    s.l1dMisses = memory_.l1d().misses().value();
    s.l2Misses = memory_.l2().misses().value();
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        s.domainEnergy[static_cast<std::size_t>(d)] =
            power_.domainEnergy(static_cast<DomainId>(d));
    }
    return s;
}

} // namespace mcd
