/**
 * @file
 * Fuzz harness for warm-start snapshot loading
 * (src/analysis/snapshot.h) — images can arrive from disk or over an
 * operator channel, so the parser must withstand arbitrary bytes.
 *
 * Drives validateSnapshot(), which runs the complete parse-and-
 * validate pass and commits nothing, so iterations stay independent.
 * The harness asserts the reported size. An image that validates is
 * then loaded into a fresh 1-lane engine, whose export must return
 * each key once, with its first occurrence's prediction byte for
 * byte: keys of any length, NaN payload bits, bottleneck lists in any
 * order and chains under any key all survive the cache's records.
 */
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "analysis/snapshot.h"
#include "engine/engine.h"
#include "server/protocol.h"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    using namespace facile;
    using namespace facile::analysis;
    SnapshotModel model;
    try {
        const SnapshotStats st = validateSnapshot(data, size);
        if (st.loadMode != SnapshotLoadMode::None)
            __builtin_trap(); // validation must commit nothing
        if (st.bytes != size)
            __builtin_trap();
        model = parseSnapshotModel(data, size);
    } catch (const SnapshotError &) {
        // Every malformed image must surface as SnapshotError — any
        // other escape (bad_alloc, UB caught by ASan) is a finding.
        return 0;
    }

    std::map<std::string, const std::vector<std::uint8_t> *> first;
    for (const auto &[key, payload] : model.predictions)
        first.emplace(key, &payload);
    // A generation larger than the image, so nothing is evicted.
    engine::PredictionEngine eng(
        {.numThreads = 1,
         .maxEntriesPerShard = model.predictions.size() + 1});
    loadSnapshotFromMemory(data, size, {&eng});
    std::vector<std::uint8_t> frame;
    eng.exportPredictionCache(
        [&](const std::string &key, const model::Prediction &p) {
            const auto it = first.find(key);
            if (it == first.end())
                __builtin_trap(); // exported twice, or never imported
            frame.clear();
            server::appendPredictResponse(frame, 0, p);
            const std::vector<std::uint8_t> &want = *it->second;
            if (frame.size() != server::kResponseHeaderSize + want.size() ||
                std::memcmp(frame.data() + server::kResponseHeaderSize,
                            want.data(), want.size()) != 0)
                __builtin_trap(); // not the first occurrence's bytes
            first.erase(it);
        });
    if (!first.empty())
        __builtin_trap(); // a key lost
    return 0;
}
