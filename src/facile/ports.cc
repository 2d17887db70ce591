#include "facile/ports.h"

#include <algorithm>
#include <utility>

#include "uarch/config.h"

namespace facile::model {

namespace {

using uarch::PortMask;

PortsScratch &
tlsScratch()
{
    thread_local PortsScratch s;
    return s;
}

/** Collect the port masks of all port-consuming µops of the block. */
void
collectUopMasks(const bb::BasicBlock &blk,
                std::vector<std::pair<PortMask, int>> &uops)
{
    uops.clear();
    for (std::size_t i = 0; i < blk.insts.size(); ++i) {
        const auto &ai = blk.insts[i];
        if (ai.fusedWithPrev || ai.info->eliminated)
            continue;
        for (const auto &u : ai.info->portUops)
            if (u.ports)
                uops.emplace_back(u.ports, static_cast<int>(i));
    }
}

/** Fill contendingInsts for the winning port combination. */
void
extractContending(const std::vector<std::pair<PortMask, int>> &uops,
                  PortsResult &best)
{
    if (!best.bottleneckPorts)
        return;
    for (const auto &[mask, idx] : uops)
        if ((mask & ~best.bottleneckPorts) == 0)
            best.contendingInsts.push_back(idx);
    best.contendingInsts.erase(std::unique(best.contendingInsts.begin(),
                                           best.contendingInsts.end()),
                               best.contendingInsts.end());
}

/**
 * @p masks / @p maskCount: the distinct µop port masks (ascending) with
 * their multiplicities — counting over the histogram instead of every
 * µop makes the pc loop O(|combos| x |distinct|).
 */
PortsResult
boundForCombinations(const std::vector<std::pair<PortMask, int>> &uops,
                     const std::vector<PortMask> &masks,
                     const std::vector<int> &maskCount,
                     const std::vector<PortMask> &combinations,
                     bool collectContending = true)
{
    PortsResult best;
    for (PortMask pc : combinations) {
        int u = 0;
        for (std::size_t i = 0; i < masks.size(); ++i)
            if ((masks[i] & ~pc) == 0)
                u += maskCount[i];
        if (u == 0)
            continue;
        double tp = static_cast<double>(u) / uarch::portCount(pc);
        if (tp > best.throughput) {
            best.throughput = tp;
            best.bottleneckPorts = pc;
        }
    }
    if (collectContending)
        extractContending(uops, best);
    return best;
}

} // namespace

namespace {

/** Distinct masks (ascending, matching the historical sort) + counts. */
void
buildMaskHistogram(const std::vector<std::pair<PortMask, int>> &uops,
                   std::vector<PortMask> &masks, std::vector<int> &count)
{
    masks.clear();
    count.clear();
    for (const auto &[mask, idx] : uops) {
        // Sorted insertion into the (tiny) distinct-mask list.
        auto it = std::lower_bound(masks.begin(), masks.end(), mask);
        const std::size_t pos =
            static_cast<std::size_t>(it - masks.begin());
        if (it != masks.end() && *it == mask) {
            ++count[pos];
        } else {
            masks.insert(it, mask);
            count.insert(count.begin() + pos, 1);
        }
    }
}

} // namespace

PortsResult
ports(const bb::BasicBlock &blk)
{
    return ports(blk, tlsScratch(), true);
}

PortsResult
ports(const bb::BasicBlock &blk, PortsScratch &s, bool collectContending)
{
    collectUopMasks(blk, s.uops);
    buildMaskHistogram(s.uops, s.pcs, s.pcsCount);

    // PC' = { pc | pc' : pc, pc' in PC } (includes singletons: pc | pc).
    s.pairs.clear();
    for (std::size_t a = 0; a < s.pcs.size(); ++a)
        for (std::size_t b = a; b < s.pcs.size(); ++b)
            s.pairs.push_back(static_cast<PortMask>(s.pcs[a] | s.pcs[b]));
    std::sort(s.pairs.begin(), s.pairs.end());
    s.pairs.erase(std::unique(s.pairs.begin(), s.pairs.end()),
                  s.pairs.end());

    return boundForCombinations(s.uops, s.pcs, s.pcsCount, s.pairs,
                                collectContending);
}

PortsResult
portsExact(const bb::BasicBlock &blk)
{
    PortsScratch &s = tlsScratch();
    collectUopMasks(blk, s.uops);
    buildMaskHistogram(s.uops, s.pcs, s.pcsCount);

    const uarch::MicroArchConfig &cfg = uarch::config(blk.arch);
    const unsigned nSubsets = 1u << cfg.nPorts;
    std::vector<PortMask> all;
    all.reserve(nSubsets - 1);
    for (unsigned sub = 1; sub < nSubsets; ++sub)
        all.push_back(static_cast<PortMask>(sub));
    return boundForCombinations(s.uops, s.pcs, s.pcsCount, all);
}

} // namespace facile::model
