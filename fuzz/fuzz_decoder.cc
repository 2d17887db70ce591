/**
 * @file
 * Fuzz harness for the decode → analyze path — the first consumer of
 * untrusted block bytes (the server hands PREDICT payloads straight to
 * bb::analyze).
 *
 * Input mapping: byte 0 selects the microarchitecture; the remainder
 * is the block image, truncated to kMaxBlockBytes exactly like the
 * wire protocol bounds it. Analysis keeps no state between blocks,
 * so every iteration is self-contained.
 */
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bb/basic_block.h"
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
        // annotations present, byte layout contiguous and in bounds.
        int prevEnd = 0;
        for (const auto &ai : blk.insts) {
            if (ai.dec == nullptr || ai.info == nullptr)
                __builtin_trap();
            if (ai.start != prevEnd || ai.end <= ai.start ||
                ai.end > static_cast<int>(n))
                __builtin_trap();
            prevEnd = ai.end;
        }
    } catch (const isa::DecodeError &) {
        // Rejecting garbage is the decoder doing its job.
    }
    return 0;
}
