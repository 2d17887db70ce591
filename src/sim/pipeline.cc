#include "sim/pipeline.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <limits>

#include "isa/semantics.h"
#include "uarch/config.h"

namespace facile::sim {

namespace {

using bb::AnnotatedInst;
using bb::BasicBlock;
using uarch::MicroArchConfig;
using uarch::PortMask;
using uops::UopKind;

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max() / 4;

/** An unfused µop in flight. */
struct ExecUop
{
    PortMask ports = 0;
    int latency = 1;
    std::int64_t baseReady = 0;     ///< earliest dispatch from static inputs
    std::int64_t completesAt = kNever;
    std::vector<int> deps;          ///< producer exec-µop ids
    bool dispatched = false;
};

/** A renamed instruction occupying ROB slots. */
struct RobEntry
{
    int iteration = 0;
    int firstExec = -1;
    int nExec = 0;
    int slots = 1; ///< issue-domain µops (ROB occupancy)
    bool lastOfIteration = false;
};

/**
 * Per-instruction static decomposition into exec µops with dependence
 * templates against abstract values.
 */
struct InstTemplate
{
    struct ExecTemplate
    {
        PortMask ports;
        int latency;
        UopKind kind;
        std::vector<int> readValues;
        bool dependsOnLoad = false;
        bool dependsOnPrevCompute = false;
    };

    std::vector<ExecTemplate> exec;
    std::vector<int> writeValues;
    int writeLatencySourceUop = -1;
    int fusedUops = 1;
    int issueUops = 1;
    bool eliminated = false;
    bool moveElimCopy = false;
    int moveSrcValue = -1;
    bool skipped = false; ///< macro-fused into predecessor
};

InstTemplate
buildTemplate(const AnnotatedInst &ai, const MicroArchConfig &cfg)
{
    InstTemplate t;
    const auto &info = *ai.info;
    t.fusedUops = info.fusedUops;
    t.issueUops = info.issueUops;
    t.eliminated = info.eliminated;
    if (ai.fusedWithPrev && info.fusedUops == 0) {
        t.skipped = true;
        return t;
    }

    const isa::RwSets rw = isa::instRw(ai.dec->inst);
    const isa::MemOp *m = ai.dec->inst.memOperand();
    const bool loads = ai.dec->inst.isLoad();
    const bool stackOp = ai.dec->inst.mnem == isa::Mnemonic::PUSH ||
                         ai.dec->inst.mnem == isa::Mnemonic::POP ||
                         ai.dec->inst.mnem == isa::Mnemonic::CALL ||
                         ai.dec->inst.mnem == isa::Mnemonic::RET;

    std::vector<int> addrValues, dataValues;
    for (int r : rw.reads) {
        bool isAddr = m && ((m->base.valid() && m->base.family() == r) ||
                            (m->index.valid() && m->index.family() == r));
        if (stackOp && r == 4)
            continue; // rsp is renamed by the stack engine
        if (isAddr)
            addrValues.push_back(r);
        else
            dataValues.push_back(r);
    }
    if (rw.depBreaking)
        dataValues.clear();

    // If no µop consumes the address registers (LEA: the compute µop does
    // the address arithmetic itself), feed them to the compute µops.
    bool hasAddrConsumer = false;
    for (const auto &u : info.portUops)
        if (u.kind == UopKind::Load || u.kind == UopKind::StoreAddr)
            hasAddrConsumer = true;
    if (!hasAddrConsumer && !addrValues.empty()) {
        dataValues.insert(dataValues.end(), addrValues.begin(),
                          addrValues.end());
        addrValues.clear();
    }

    for (int w : rw.writes) {
        if (stackOp && w == 4)
            continue;
        t.writeValues.push_back(w);
    }

    if (t.eliminated) {
        if (!rw.depBreaking && dataValues.size() == 1 &&
            !t.writeValues.empty()) {
            t.moveElimCopy = true;
            t.moveSrcValue = dataValues[0];
        }
        return t;
    }

    int nCompute = 0;
    for (const auto &u : info.portUops)
        if (u.kind == UopKind::Compute)
            ++nCompute;
    int firstLat = std::max(1, info.latency - std::max(0, nCompute - 1));

    int computeSeen = 0;
    for (const auto &u : info.portUops) {
        InstTemplate::ExecTemplate et;
        et.ports = u.ports;
        et.kind = u.kind;
        switch (u.kind) {
          case UopKind::Load:
            et.latency = cfg.loadLatency;
            et.readValues = addrValues;
            break;
          case UopKind::StoreAddr:
            et.latency = 1;
            et.readValues = addrValues;
            break;
          case UopKind::StoreData:
            et.latency = 1;
            et.readValues = dataValues;
            et.dependsOnPrevCompute = nCompute > 0;
            break;
          case UopKind::Compute:
            et.latency = computeSeen == 0 ? firstLat : 1;
            if (computeSeen == 0)
                et.readValues = dataValues;
            et.dependsOnLoad = loads;
            et.dependsOnPrevCompute = computeSeen > 0;
            ++computeSeen;
            break;
        }
        t.exec.push_back(std::move(et));
    }

    for (int i = static_cast<int>(t.exec.size()) - 1; i >= 0; --i) {
        if (t.exec[i].kind == UopKind::Compute) {
            t.writeLatencySourceUop = i;
            break;
        }
    }
    if (t.writeLatencySourceUop < 0) {
        for (int i = 0; i < static_cast<int>(t.exec.size()); ++i) {
            if (t.exec[i].kind == UopKind::Load) {
                t.writeLatencySourceUop = i;
                break;
            }
        }
    }
    return t;
}

/**
 * Legacy decode path: predecoder (16-byte windows, 5 slots/cycle, LCP
 * stalls) feeding an instruction queue, and decode-group formation with
 * the complex/simple steering and macro-fusion rules.
 */
class LegacyFrontEnd
{
  public:
    LegacyFrontEnd(const BasicBlock &blk, const MicroArchConfig &cfg,
                   bool unrolled)
        : blk_(blk), cfg_(cfg), unrolled_(unrolled)
    {
        for (std::size_t i = 0; i < blk.insts.size(); ++i) {
            const auto &ai = blk.insts[i];
            if (ai.fusedWithPrev)
                continue;
            const bool pairWithNext = i + 1 < blk.insts.size() &&
                                      blk.insts[i + 1].fusedWithPrev;
            Unit u;
            u.instIdx = static_cast<int>(i);
            u.complex = ai.info->needsComplexDecoder;
            u.nAvailSimple = ai.info->nAvailableSimpleDecoders;
            u.macroFusible = ai.info->macroFusible;
            u.branch = ai.dec->inst.isBranch() || pairWithNext;
            u.iqCost = pairWithNext ? 2 : 1;
            units_.push_back(u);
        }
    }

    /** One predecode cycle; returns instructions pushed into the IQ. */
    void
    predecodeCycle()
    {
        if (iq_ >= kIqCapacity)
            return;
        if (lcpStall_ > 0) {
            --lcpStall_;
            return;
        }
        // The predecoder fetches at most one 16-byte window per cycle and
        // predecodes up to five instruction slots from it.
        int emitted = 0;
        while (emitted < cfg_.predecodeWidth) {
            if (slotCursor_ >= slotIsEnd_.size()) {
                if (emitted > 0)
                    break; // the next window is fetched next cycle
                advanceWindow();
                if (lcpStall_ > 0)
                    break; // length-decode stall for the new window
                if (slotIsEnd_.empty())
                    break;
                continue;
            }
            if (slotIsEnd_[slotCursor_])
                ++iq_;
            ++slotCursor_;
            ++emitted;
        }
        if (emitted > 0)
            ++cyclesOnCurrentWindow_;
    }

    /**
     * Form one decode group; appends decoded instruction indices (into
     * the block) to @p decoded.
     */
    void
    decodeCycle(std::vector<int> &decoded)
    {
        int curDec = 0;
        int availSimple = cfg_.nDecoders - 1;
        bool first = true;
        while (true) {
            const Unit &u = units_[decodeCursor_ % units_.size()];
            if (iq_ < u.iqCost)
                break; // wait for the (possibly fused) pair to predecode
            if (u.complex) {
                if (!first)
                    break; // the complex decoder only leads a group
                availSimple = u.nAvailSimple;
            } else if (!first) {
                if (availSimple == 0)
                    break;
                if (curDec + 1 == cfg_.nDecoders - 1 && u.macroFusible &&
                    !cfg_.macroFusibleOnLastDecoder)
                    break;
                ++curDec;
                --availSimple;
            }
            first = false;
            iq_ -= u.iqCost;
            decoded.push_back(u.instIdx);
            ++decodeCursor_;
            if (u.branch)
                break;
            if (u.complex && availSimple == 0)
                break;
        }
    }

  private:
    struct Unit
    {
        int instIdx;
        bool complex;
        int nAvailSimple;
        bool macroFusible;
        bool branch;
        int iqCost;
    };

    static constexpr int kIqCapacity = 25;

    /** Lay out the next 16-byte window of the instruction stream. */
    void
    advanceWindow()
    {
        const std::int64_t l = blk_.lengthBytes();
        slotIsEnd_.clear();
        slotCursor_ = 0;
        if (l == 0)
            return;

        const std::int64_t winStart = windowIdx_ * 16;
        const std::int64_t winEnd = winStart + 16;
        int lcpCount = 0;

        const std::int64_t cFirst =
            std::max<std::int64_t>(0, winStart / l - 1);
        const std::int64_t cLast = winEnd / l + 1;
        for (std::int64_t c = cFirst; c <= cLast; ++c) {
            if (!unrolled_ && c > 0)
                break;
            const std::int64_t base = c * l;
            for (const auto &ai : blk_.insts) {
                const std::int64_t opc = base + ai.opcodePos;
                const std::int64_t last = base + ai.end - 1;
                const bool endsHere = last >= winStart && last < winEnd;
                const bool opcHere = opc >= winStart && opc < winEnd;
                if (endsHere)
                    slotIsEnd_.push_back(true);
                else if (opcHere)
                    slotIsEnd_.push_back(false); // O-slot (boundary cross)
                if (opcHere && ai.dec->lcp)
                    ++lcpCount;
            }
        }

        if (!unrolled_ && winEnd >= l)
            windowIdx_ = 0; // loop: refetch the same fixed windows
        else
            ++windowIdx_;

        // LCP length-decode overlaps all but one cycle of the previous
        // window's predecoding.
        if (lcpCount > 0) {
            int overlap = std::max(0, cyclesOnCurrentWindow_ - 1);
            lcpStall_ = std::max(0, 3 * lcpCount - overlap);
        }
        cyclesOnCurrentWindow_ = 0;
    }

    const BasicBlock &blk_;
    const MicroArchConfig &cfg_;
    bool unrolled_;
    std::vector<Unit> units_;

    std::int64_t windowIdx_ = 0;
    std::vector<bool> slotIsEnd_;
    std::size_t slotCursor_ = 0;
    int lcpStall_ = 0;
    int cyclesOnCurrentWindow_ = 0;
    int iq_ = 0;
    std::size_t decodeCursor_ = 0;
};

} // namespace

SimResult
simulate(const BasicBlock &blk, bool loop)
{
    const MicroArchConfig &cfg = uarch::config(blk.arch);
    SimResult result;
    if (blk.insts.empty())
        return result;

    // ---- static decomposition -------------------------------------------
    std::vector<InstTemplate> templates;
    templates.reserve(blk.insts.size());
    for (const auto &ai : blk.insts)
        templates.push_back(buildTemplate(ai, cfg));

    // Fused-domain µop sequence of one iteration (instruction per µop).
    std::vector<int> fusedSeq;
    for (std::size_t i = 0; i < blk.insts.size(); ++i) {
        if (templates[i].skipped)
            continue;
        for (int k = 0; k < std::max(1, templates[i].fusedUops); ++k)
            fusedSeq.push_back(static_cast<int>(i));
    }
    if (fusedSeq.empty())
        return result;
    const int seqLen = static_cast<int>(fusedSeq.size());
    const int lastInstIdx = fusedSeq.back();

    // ---- front-end mode -----------------------------------------------
    using FeMode = SimResult::FeMode;
    FeMode mode = FeMode::Legacy;
    if (loop) {
        const bool jccAffected =
            cfg.jccErratum && blk.touchesJccErratumBoundary();
        if (jccAffected)
            mode = FeMode::Legacy;
        else if (cfg.lsdEnabled && seqLen <= cfg.idqWidth)
            mode = FeMode::Lsd;
        else
            mode = FeMode::Dsb;
    }
    result.feMode = mode;

    const int iterations = static_cast<int>(
        std::clamp<std::int64_t>(6000 / seqLen, 64, 512));
    const int warmup = iterations / 4;

    // ---- dynamic state -----------------------------------------------------
    LegacyFrontEnd legacy(blk, cfg, /*unrolled=*/!loop);

    struct IdqEntry
    {
        int instIdx;
        int iteration;
    };
    std::deque<IdqEntry> idq;

    std::vector<RobEntry> rob;
    std::size_t robHead = 0;
    int robOccupancy = 0;
    std::vector<ExecUop> execUops;
    std::vector<int> waiting;

    struct ValueState
    {
        std::int64_t readyAt = 0;
        int producer = -1;
    };
    std::array<ValueState, isa::kNumValues> values{};

    std::vector<std::int64_t> iterEnd(iterations + 2, -1);

    std::vector<int> decodedUnits;
    int legacyIter = 0;
    std::size_t legacyInstInIter = 0;
    std::size_t nonSkippedInsts = 0;
    for (const auto &t : templates)
        if (!t.skipped)
            ++nonSkippedInsts;

    int streamPos = 0;
    int streamIter = 0;
    int lsdUnroll =
        mode == FeMode::Lsd ? cfg.lsdUnrollFactor(seqLen) : 1;
    int lsdPos = 0;

    std::int64_t cycle = 0;
    int completedIters = 0;
    int issueDebt = 0;
    const std::int64_t cycleLimit =
        static_cast<std::int64_t>(iterations) * 800 + 20000;

    while (completedIters < iterations && cycle < cycleLimit) {
        // ---- retire ------------------------------------------------------
        int retired = 0;
        while (robHead < rob.size() && retired < cfg.retireWidth) {
            RobEntry &f = rob[robHead];
            bool done = true;
            for (int k = 0; k < f.nExec; ++k) {
                const ExecUop &e = execUops[f.firstExec + k];
                if (!e.dispatched || e.completesAt > cycle) {
                    done = false;
                    break;
                }
            }
            if (!done)
                break;
            if (f.lastOfIteration &&
                f.iteration < static_cast<int>(iterEnd.size()) &&
                iterEnd[f.iteration] < 0) {
                iterEnd[f.iteration] = cycle;
                completedIters = f.iteration;
            }
            robOccupancy -= f.slots;
            ++robHead;
            ++retired;
        }

        // ---- dispatch: oldest ready µop per free port --------------------
        PortMask freePorts = cfg.allPorts();
        for (std::size_t wi = 0; wi < waiting.size() && freePorts;) {
            ExecUop &e = execUops[waiting[wi]];
            bool ready = e.baseReady <= cycle;
            if (ready) {
                for (int d : e.deps) {
                    const ExecUop &p = execUops[d];
                    if (!p.dispatched || p.completesAt > cycle) {
                        ready = false;
                        break;
                    }
                }
            }
            if (ready && (e.ports & freePorts)) {
                PortMask usable = e.ports & freePorts;
                PortMask chosen = usable & (~usable + 1);
                freePorts &= static_cast<PortMask>(~chosen);
                e.dispatched = true;
                e.completesAt = cycle + e.latency;
                waiting.erase(waiting.begin() +
                              static_cast<std::ptrdiff_t>(wi));
                continue;
            }
            ++wi;
        }

        // ---- rename / issue ----------------------------------------------
        int slots = cfg.issueWidth;
        // Pay off issue slots still owed by a wide (microcoded)
        // instruction issued in a previous cycle.
        if (issueDebt > 0) {
            const int pay = std::min(slots, issueDebt);
            slots -= pay;
            issueDebt -= pay;
        }
        while (slots > 0 && issueDebt == 0 && !idq.empty()) {
            const IdqEntry entry = idq.front();
            const InstTemplate &t = templates[entry.instIdx];
            const int instFused = std::max(1, t.fusedUops);
            if (static_cast<int>(idq.size()) < instFused)
                break; // the instruction's µops are not all in the IDQ yet
            const int cost = std::max(1, t.issueUops);
            if (robOccupancy + cost > cfg.robSize)
                break;
            if (static_cast<int>(waiting.size()) +
                    static_cast<int>(t.exec.size()) >
                cfg.rsSize)
                break;
            if (cost > slots) {
                if (slots < cfg.issueWidth)
                    break; // start wide instructions on a fresh cycle
                issueDebt = cost - slots;
                slots = 0;
            } else {
                slots -= cost;
            }

            for (int k = 0; k < instFused; ++k)
                idq.pop_front();

            RobEntry f;
            f.iteration = entry.iteration;
            f.slots = cost;
            f.firstExec = static_cast<int>(execUops.size());
            f.nExec = static_cast<int>(t.exec.size());
            f.lastOfIteration = entry.instIdx == lastInstIdx;

            int loadUopId = -1;
            int prevComputeId = -1;
            for (const auto &et : t.exec) {
                ExecUop e;
                e.ports = et.ports;
                e.latency = et.latency;
                e.baseReady = cycle + 1;
                for (int v : et.readValues) {
                    const ValueState &vs = values[v];
                    if (vs.producer >= 0)
                        e.deps.push_back(vs.producer);
                    else
                        e.baseReady = std::max(e.baseReady, vs.readyAt);
                }
                if (et.dependsOnLoad && loadUopId >= 0)
                    e.deps.push_back(loadUopId);
                if (et.dependsOnPrevCompute && prevComputeId >= 0)
                    e.deps.push_back(prevComputeId);
                const int id = static_cast<int>(execUops.size());
                if (et.kind == UopKind::Load && loadUopId < 0)
                    loadUopId = id;
                if (et.kind == UopKind::Compute)
                    prevComputeId = id;
                execUops.push_back(std::move(e));
                waiting.push_back(id);
            }

            if (t.eliminated) {
                for (int w : t.writeValues) {
                    if (t.moveElimCopy)
                        values[w] = values[t.moveSrcValue];
                    else
                        values[w] = {cycle + 1, -1};
                }
            } else if (!t.writeValues.empty() &&
                       t.writeLatencySourceUop >= 0) {
                const int prod = f.firstExec + t.writeLatencySourceUop;
                for (int w : t.writeValues)
                    values[w] = {0, prod};
            }

            robOccupancy += cost;
            rob.push_back(f);
        }

        // ---- front end ------------------------------------------------------
        const int idqCapacity = cfg.idqWidth;
        switch (mode) {
          case FeMode::Legacy: {
            legacy.predecodeCycle();
            if (static_cast<int>(idq.size()) < idqCapacity) {
                decodedUnits.clear();
                legacy.decodeCycle(decodedUnits);
                for (int instIdx : decodedUnits) {
                    const int n = std::max(1, templates[instIdx].fusedUops);
                    for (int k = 0; k < n; ++k)
                        idq.push_back({instIdx, legacyIter + 1});
                    ++legacyInstInIter;
                    if (legacyInstInIter == nonSkippedInsts) {
                        legacyInstInIter = 0;
                        ++legacyIter;
                    }
                }
            }
            break;
          }
          case FeMode::Dsb: {
            int delivered = 0;
            while (delivered < cfg.dsbWidth &&
                   static_cast<int>(idq.size()) < idqCapacity) {
                idq.push_back({fusedSeq[streamPos], streamIter + 1});
                ++delivered;
                if (++streamPos == seqLen) {
                    streamPos = 0;
                    ++streamIter;
                    // After the taken branch, no further µops from the
                    // same 32-byte window can be loaded this cycle.
                    if (blk.lengthBytes() < 32)
                        break;
                }
            }
            break;
          }
          case FeMode::Lsd: {
            const int total = seqLen * lsdUnroll;
            int delivered = 0;
            while (delivered < cfg.issueWidth &&
                   static_cast<int>(idq.size()) < idqCapacity) {
                idq.push_back({fusedSeq[lsdPos % seqLen], streamIter + 1});
                ++delivered;
                ++lsdPos;
                if (lsdPos % seqLen == 0)
                    ++streamIter;
                if (lsdPos == total) {
                    lsdPos = 0;
                    break; // the locked body cannot wrap within a cycle
                }
            }
            break;
          }
        }

        ++cycle;
    }

    // ---- steady-state throughput ---------------------------------------
    int firstIter = warmup;
    int lastIter = completedIters;
    while (firstIter > 1 && iterEnd[firstIter] < 0)
        --firstIter;
    while (lastIter > firstIter && iterEnd[lastIter] < 0)
        --lastIter;
    if (lastIter <= firstIter || iterEnd[firstIter] < 0) {
        result.cyclesPerIteration = static_cast<double>(cycle);
        return result;
    }
    result.cyclesPerIteration =
        static_cast<double>(iterEnd[lastIter] - iterEnd[firstIter]) /
        static_cast<double>(lastIter - firstIter);
    result.measuredIterations = lastIter - firstIter;
    return result;
}

double
measuredThroughput(const bb::BasicBlock &blk, bool loop)
{
    return simulate(blk, loop).cyclesPerIteration;
}

} // namespace facile::sim
