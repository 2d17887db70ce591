/**
 * @file
 * Fuzz harness for the decode → analyze → precedence path — the first
 * consumer of untrusted block bytes (the server hands PREDICT payloads
 * straight to bb::analyze, and every prediction runs the precedence
 * bound over the result).
 *
 * Input mapping: byte 0 selects the microarchitecture; the remainder
 * is the block image, truncated to kMaxBlockBytes exactly like the
 * wire protocol bounds it. Analysis keeps no state between blocks,
 * so every iteration is self-contained.
 */
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bb/basic_block.h"
#include "facile/precedence.h"
#include "isa/decoder.h"
#include "server/protocol.h"
#include "uarch/config.h"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    using namespace facile;
    if (size == 0)
        return 0;
    const auto &arches = uarch::allUArchs();
    const uarch::UArch arch = arches[data[0] % arches.size()];
    const std::size_t n = std::min(size - 1, server::kMaxBlockBytes);
    std::vector<std::uint8_t> bytes(data + 1, data + 1 + n);
    try {
        bb::BasicBlock blk = bb::analyze(std::move(bytes), arch);
        // Structural invariants every predictor downstream relies on:
        // byte layout contiguous, in bounds and matching each decoded
        // length.
        int prevEnd = 0;
        for (const auto &ai : blk.insts) {
            if (ai.start != prevEnd || ai.end - ai.start != ai.dec.length ||
                ai.end > static_cast<int>(n))
                __builtin_trap();
            prevEnd = ai.end;
        }
        // The carried-value bound must be a finite, non-negative cycle
        // ratio that agrees with Howard over the same dependence edges.
        const double bound = model::precedenceBound(blk);
        const model::DependenceGraph g = model::dependenceGraph(blk);
        const double howard =
            model::maxCycleRatioHoward(g.nodes, g.edges).ratio;
        if (!std::isfinite(bound) || bound < 0.0 ||
            std::abs(bound - howard) > 1e-9 * std::max(1.0, howard))
            __builtin_trap();
    } catch (const isa::DecodeError &) {
        // Rejecting garbage is the decoder doing its job.
    }
    return 0;
}
