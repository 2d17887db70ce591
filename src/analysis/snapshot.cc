#include "analysis/snapshot.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "corpus/sections.h"
#include "engine/engine.h"
// The prediction-cache section reuses the wire codec (one Prediction
// body layout in the repo, not two drifting copies).
#include "server/protocol.h"
#include "testing/fault.h"

namespace facile::analysis {

namespace {

constexpr char kMagic[8] = {'F', 'A', 'C', 'S', 'N', 'P', '2', '\n'};
constexpr std::size_t kHeaderSize = 64;

/** The one section type; 1 and 2 are retired. */
constexpr std::uint32_t kPredictionsSection = 3;

// ---- append helpers (little-endian; the host is asserted little-
// endian by the server protocol, and the snapshot shares that
// assumption via memcpy codecs) ---------------------------------------------

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    const std::size_t n = out.size();
    out.resize(n + 4);
    std::memcpy(out.data() + n, &v, 4);
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    const std::size_t n = out.size();
    out.resize(n + 8);
    std::memcpy(out.data() + n, &v, 8);
}

/** Bounds-checked sequential reader; every overrun is a SnapshotError. */
struct Reader
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t pos = 0;

    void
    need(std::size_t n) const
    {
        if (size - pos < n)
            throw SnapshotError("truncated data");
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v;
        std::memcpy(&v, data + pos, 4);
        pos += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v;
        std::memcpy(&v, data + pos, 8);
        pos += 8;
        return v;
    }

    const std::uint8_t *
    bytes(std::size_t n)
    {
        need(n);
        const std::uint8_t *p = data + pos;
        pos += n;
        return p;
    }
};

// ---- Prediction codec (prediction-cache section) ---------------------------
//
// Snapshot entries carry exactly the wire protocol's PREDICT response
// payload: appendPredictResponse minus its frame header on the way
// out, decodePredictInto (which validates lengths and component
// ranges) on the way in. Raw IEEE-754 bit patterns either way.

void
encodePrediction(std::vector<std::uint8_t> &out,
                 const model::Prediction &p)
{
    std::vector<std::uint8_t> frame;
    server::appendPredictResponse(frame, 0, p);
    out.insert(out.end(),
               frame.begin() + server::kResponseHeaderSize, frame.end());
}

model::Prediction
decodePrediction(const std::uint8_t *data, std::size_t len)
{
    model::Prediction p;
    if (!server::decodePredictInto(data, len, p))
        throw SnapshotError("bad prediction entry");
    return p;
}

// ---- file I/O --------------------------------------------------------------

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::FILE *f;
    const auto fa = testing::faultPoint("snapshot.read", 0);
    if (fa.err) {
        errno = fa.err;
        f = nullptr;
    } else {
        f = std::fopen(path.c_str(), "rb");
    }
    if (!f)
        throw SnapshotError("cannot open " + path);
    std::fseek(f, 0, SEEK_END);
    const long sz = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<std::uint8_t> buf(sz > 0 ? static_cast<std::size_t>(sz)
                                         : 0);
    if (!buf.empty() && std::fread(buf.data(), 1, buf.size(), f) !=
                            buf.size()) {
        std::fclose(f);
        throw SnapshotError("short read on " + path);
    }
    std::fclose(f);
    return buf;
}

// ---- parse -----------------------------------------------------------------

/**
 * Validate the header and the section table: magic, header hash,
 * version, endianness, page size, file size, table hash, in-bounds
 * non-overlapping payloads that all start after the table, and at most
 * one predictions section. @p name labels errors.
 */
std::vector<corpus::SectionEntry>
parseHeaderAndTable(const std::uint8_t *data, std::size_t size,
                    const std::string &name)
{
    if (size < kHeaderSize)
        throw SnapshotError("truncated header in " + name);
    if (std::memcmp(data, kMagic, sizeof kMagic) != 0)
        throw SnapshotError("bad magic in " + name);
    std::uint64_t headerHash;
    std::memcpy(&headerHash, data + 48, 8);
    if (corpus::xxh64(data, 48) != headerHash)
        throw SnapshotError("header checksum mismatch in " + name);

    Reader hd{data, size, sizeof kMagic};
    const std::uint32_t version = hd.u32();
    if (version != kSnapshotVersion)
        throw SnapshotError("unsupported version " +
                            std::to_string(version) + " in " + name);
    if (hd.u32() != corpus::kLittleEndianTag)
        throw SnapshotError("foreign-endian image " + name);
    if (hd.u32() != corpus::kSectionAlign)
        throw SnapshotError("unsupported page size in " + name);
    const std::uint32_t sectionCount = hd.u32();
    if (hd.u64() != size)
        throw SnapshotError("file size mismatch in " + name);
    if (hd.u64() != kHeaderSize)
        throw SnapshotError("bad table offset in " + name);
    const std::uint64_t tableHash = hd.u64();
    std::uint64_t reserved;
    std::memcpy(&reserved, data + 56, 8);
    if (reserved != 0)
        throw SnapshotError("nonzero reserved header field in " + name);

    const std::uint64_t tableBytes =
        std::uint64_t{sectionCount} * sizeof(corpus::SectionEntry);
    if (size - kHeaderSize < tableBytes)
        throw SnapshotError("truncated section table in " + name);
    if (corpus::xxh64(data + kHeaderSize, tableBytes) != tableHash)
        throw SnapshotError("table checksum mismatch in " + name);
    std::vector<corpus::SectionEntry> entries;
    try {
        entries = corpus::decodeSectionTable(
            data + kHeaderSize, size - kHeaderSize, sectionCount,
            size);
    } catch (const corpus::SectionError &e) {
        throw SnapshotError(std::string(e.what()) + " in " + name);
    }

    std::uint64_t prevEnd = kHeaderSize + tableBytes;
    bool sawPredictions = false;
    for (const corpus::SectionEntry &e : entries) {
        if (e.offset < prevEnd)
            throw SnapshotError("overlapping sections in " + name);
        prevEnd = e.offset + e.length;
        if (e.type != kPredictionsSection)
            throw SnapshotError("unknown section type " +
                                std::to_string(e.type) + " in " + name);
        if (e.tag != 0 || sawPredictions)
            throw SnapshotError("bad predictions section in " + name);
        sawPredictions = true;
    }
    return entries;
}

/**
 * Deep-parse an image: header, table, the section hash, and every
 * prediction entry (u32 count, then (key, payload) entries, each
 * payload validated by the wire decoder).
 */
SnapshotModel
parseImage(const std::uint8_t *data, std::size_t size,
           const std::string &name)
{
    SnapshotModel model;
    for (const corpus::SectionEntry &e :
         parseHeaderAndTable(data, size, name)) {
        const std::uint8_t *sec = data + e.offset;
        if (corpus::xxh64(sec, e.length) != e.hash)
            throw SnapshotError("section checksum mismatch in " + name);
        model.hasPredictions = true;
        Reader rd{sec, static_cast<std::size_t>(e.length), 0};
        const std::uint32_t count = rd.u32();
        if (count != e.itemCount)
            throw SnapshotError(
                "prediction count disagrees with table in " + name);
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint32_t keyLen = rd.u32();
            const std::uint8_t *key = rd.bytes(keyLen);
            const std::uint32_t predLen = rd.u32();
            const std::uint8_t *pred = rd.bytes(predLen);
            decodePrediction(pred, predLen); // validate; discard
            model.predictions.emplace_back(
                std::string(reinterpret_cast<const char *>(key), keyLen),
                std::vector<std::uint8_t>(pred, pred + predLen));
        }
        if (rd.pos != e.length)
            throw SnapshotError("section length mismatch in " + name);
    }
    return model;
}

/** What loading @p m (an image of @p size bytes) would report. */
SnapshotStats
statsOfModel(const SnapshotModel &m, std::size_t size)
{
    SnapshotStats st;
    st.bytes = size;
    st.predictions = m.predictions.size();
    return st;
}

/**
 * Parse, validate, then commit into @p opts.engine's prediction cache
 * (an existing key wins). Nothing is committed unless the whole image
 * validates.
 */
SnapshotStats
loadImage(const std::uint8_t *data, std::size_t size,
          const SnapshotOptions &opts, const std::string &name)
{
    SnapshotModel m = parseImage(data, size, name);
    SnapshotStats st = statsOfModel(m, size);
    if (opts.engine)
        for (auto &[key, payload] : m.predictions)
            opts.engine->importPredictionCacheEntry(
                std::move(key),
                decodePrediction(payload.data(), payload.size()));
    st.loadMode = SnapshotLoadMode::Parsed;
    return st;
}

// ---- writers ---------------------------------------------------------------

/**
 * The live engine's prediction cache as a model. Predictions are
 * encoded inside the export visit, which holds engine shard locks:
 * visitors must be brief, so no file IO happens here.
 */
SnapshotModel
modelFromLive(engine::PredictionEngine *eng)
{
    SnapshotModel model;
    if (!eng)
        return model;
    model.hasPredictions = true;
    eng->exportPredictionCache(
        [&](const std::string &key, const model::Prediction &p) {
            std::vector<std::uint8_t> enc;
            encodePrediction(enc, p);
            model.predictions.emplace_back(key, std::move(enc));
        });
    return model;
}

/**
 * Header, table, then the predictions section right after the table.
 * Deterministic for equal models.
 */
std::vector<std::uint8_t>
buildImage(const SnapshotModel &model)
{
    std::vector<corpus::SectionEntry> entries;
    std::vector<std::uint8_t> predSec;
    if (model.hasPredictions) {
        putU32(predSec,
               static_cast<std::uint32_t>(model.predictions.size()));
        for (const auto &[key, enc] : model.predictions) {
            decodePrediction(enc.data(), enc.size()); // validate
            putU32(predSec, static_cast<std::uint32_t>(key.size()));
            const auto *kp =
                reinterpret_cast<const std::uint8_t *>(key.data());
            predSec.insert(predSec.end(), kp, kp + key.size());
            putU32(predSec, static_cast<std::uint32_t>(enc.size()));
            predSec.insert(predSec.end(), enc.begin(), enc.end());
        }
        corpus::SectionEntry e;
        e.type = kPredictionsSection;
        e.tag = 0;
        e.offset = kHeaderSize + sizeof(corpus::SectionEntry);
        e.length = predSec.size();
        e.hash = corpus::xxh64(predSec.data(), predSec.size());
        e.itemCount = model.predictions.size();
        entries.push_back(e);
    }
    const std::vector<std::uint8_t> table =
        corpus::encodeSectionTable(entries);

    std::vector<std::uint8_t> out;
    out.reserve(kHeaderSize + table.size() + predSec.size());
    const auto *magic = reinterpret_cast<const std::uint8_t *>(kMagic);
    out.insert(out.end(), magic, magic + sizeof kMagic);
    putU32(out, kSnapshotVersion);
    putU32(out, corpus::kLittleEndianTag);
    putU32(out, corpus::kSectionAlign);
    putU32(out, static_cast<std::uint32_t>(entries.size()));
    putU64(out, kHeaderSize + table.size() + predSec.size());
    putU64(out, kHeaderSize);
    putU64(out, corpus::xxh64(table.data(), table.size()));
    putU64(out, corpus::xxh64(out.data(), 48));
    putU64(out, 0); // reserved
    out.insert(out.end(), table.begin(), table.end());
    out.insert(out.end(), predSec.begin(), predSec.end());
    return out;
}

} // namespace

// ---- public API ------------------------------------------------------------

std::string
snapshotGenerationPath(const std::string &path, int gen)
{
    return corpus::generationPath(path, gen);
}

SnapshotStats
saveSnapshot(const std::string &path, const SnapshotOptions &opts)
{
    const SnapshotModel model = modelFromLive(opts.engine);
    const std::vector<std::uint8_t> img = buildImage(model);
    SnapshotStats st;
    st.predictions = model.predictions.size();
    try {
        corpus::AtomicFileWriter writer(path, "snapshot",
                                        std::max(1, opts.generations));
        writer.write(img.data(), img.size());
        writer.commit();
    } catch (const corpus::SectionError &e) {
        // Keep the subsystem's exception type: callers (and the fault
        // matrices) catch SnapshotError for every failed save.
        throw SnapshotError(e.what());
    }
    st.bytes = img.size();
    return st;
}

std::vector<std::uint8_t>
saveSnapshotToMemory(const SnapshotOptions &opts)
{
    return buildImage(modelFromLive(opts.engine));
}

SnapshotStats
loadSnapshot(const std::string &path, const SnapshotOptions &opts)
{
    // Walk the generation chain newest-first and warm-start from the
    // first image that validates. Nothing is committed from an image
    // that fails, so the fallback load starts from pristine state.
    const int gens = std::max(1, opts.generations);
    std::string firstError;
    for (int g = 0; g < gens; ++g) {
        const std::string cand = snapshotGenerationPath(path, g);
        try {
            const std::vector<std::uint8_t> img = readFile(cand);
            SnapshotStats st =
                loadImage(img.data(), img.size(), opts, cand);
            st.generation = static_cast<std::size_t>(g);
            return st;
        } catch (const SnapshotError &e) {
            if (firstError.empty())
                firstError = e.what();
        }
    }
    throw SnapshotError("no loadable generation of " + path + " (" +
                        firstError + ")");
}

SnapshotStats
loadSnapshotFromMemory(const std::uint8_t *data, std::size_t size,
                       const SnapshotOptions &opts)
{
    return loadImage(data, size, opts, "<memory>");
}

SnapshotStats
validateSnapshot(const std::uint8_t *data, std::size_t size)
{
    return statsOfModel(parseImage(data, size, "<memory>"), size);
}

SnapshotModel
parseSnapshotModel(const std::uint8_t *data, std::size_t size)
{
    return parseImage(data, size, "<memory>");
}

std::vector<std::uint8_t>
buildSnapshotImage(const SnapshotModel &model)
{
    return buildImage(model);
}

void
SnapshotModelSet::accumulate(const SnapshotModel &m,
                             const std::string &name)
{
    hasPredictions = hasPredictions || m.hasPredictions;
    for (const auto &[key, payload] : m.predictions) {
        auto [it, inserted] = predictions.try_emplace(key, payload);
        if (!inserted && it->second != payload)
            throw SnapshotError(
                "merge conflict: two different cached predictions for "
                "one key (from " +
                name + ")");
    }
}

SnapshotModel
SnapshotModelSet::canonical() const
{
    SnapshotModel m;
    m.hasPredictions = hasPredictions;
    for (const auto &[key, payload] : predictions)
        m.predictions.emplace_back(key, payload);
    return m;
}

SnapshotModel
mergeSnapshotModels(const std::vector<SnapshotModel> &models)
{
    SnapshotModelSet set;
    for (std::size_t i = 0; i < models.size(); ++i)
        set.accumulate(models[i], "input " + std::to_string(i));
    return set.canonical();
}

} // namespace facile::analysis
