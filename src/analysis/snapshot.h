/**
 * @file
 * Warm-start snapshots: persist an engine's prediction cache to a
 * versioned, checksummed binary file, so a new process answers the
 * blocks its predecessor saw from the cache instead of analyzing them
 * again. Block analysis itself keeps no state (src/bb/basic_block.h),
 * so predictions are all an image carries.
 *
 * One on-disk format: little-endian, magic "FACSNP2\n", version 3
 * (layout diagram in src/analysis/README.md):
 *
 *   offset 0   char[8]  magic       "FACSNP2\n"
 *   offset 8   u32      version     3
 *   offset 12  u32      endianTag   corpus::kLittleEndianTag — a
 *                                   foreign-endian image is rejected,
 *                                   never misparsed
 *   offset 16  u32      pageSize    corpus::kSectionAlign (4096)
 *   offset 20  u32      sectionCount 0 or 1
 *   offset 24  u64      fileBytes   total file size (truncation check)
 *   offset 32  u64      tableOffset 64
 *   offset 40  u64      tableHash   xxh64 over the section table
 *   offset 48  u64      headerHash  xxh64 over bytes [0, 48)
 *   offset 56  u64      reserved    0
 *   offset 64  section table: corpus::SectionEntry × sectionCount,
 *              each carrying a per-section xxh64 and a payload offset
 *
 *   The one section type is 3 = prediction cache (tag 0): u32 count,
 *   then per entry u32 keyLen + opaque engine cache key, u32 predLen +
 *   serialized Prediction (raw IEEE-754 bit patterns). Types 1 and 2
 *   (version 2's instruction records and fused pairs) are retired; an
 *   image carrying them is rejected.
 *
 * Loading reads the whole image, deep-validates it (header, table,
 * section hash, every entry) and only then commits the predictions —
 * one path for files and in-memory images. Any failure throws
 * SnapshotError and commits nothing; a version-2 image fails on its
 * version.
 *
 * Crash safety: saves are atomic and durable — written to a
 * pid-suffixed temp file, fflush+fsync'd, then rename(2)'d over the
 * target with the parent directory fsync'd after. Saves keep a bounded
 * history of rotated *generations* (`path` → `path.g1` → ... per
 * SnapshotOptions::generations); loadSnapshot walks that chain
 * newest-first and warm-starts from the first image that validates.
 * SnapshotStats::generation reports which one loaded.
 */
#ifndef FACILE_ANALYSIS_SNAPSHOT_H
#define FACILE_ANALYSIS_SNAPSHOT_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace facile::engine {
class PredictionEngine;
}

namespace facile::analysis {

inline constexpr std::uint32_t kSnapshotVersion = 3;

/**
 * Which code path actually served a load. The values travel on the
 * wire (STATS snapshotLoadMode); 1 and 3 are retired and never
 * reported.
 */
enum class SnapshotLoadMode : std::uint8_t {
    None = 0,   ///< nothing loaded (saves, or validation-only)
    Parsed = 2, ///< image fully parsed, validated and committed
};

/**
 * Default on-disk history depth: the primary file plus two rotated
 * prior generations (`path`, `path.g1`, `path.g2`).
 */
inline constexpr int kSnapshotGenerations = 3;

/** Thrown on malformed, truncated, or corrupted snapshot files. */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error("snapshot: " + what)
    {}
};

/** What was written or read. */
struct SnapshotStats
{
    std::size_t predictions = 0; ///< engine prediction-cache entries
    std::size_t bytes = 0;       ///< file size
    /**
     * Which generation a load came from: 0 = the primary path, g > 0 =
     * the g-th rotated fallback (`path.gN`) after newer generations
     * failed validation. Always 0 for saves.
     */
    std::size_t generation = 0;
    /** How the image was consumed (None for saves). */
    SnapshotLoadMode loadMode = SnapshotLoadMode::None;
};

struct SnapshotOptions
{
    /**
     * The engine whose prediction cache save() serializes and load()
     * restores into. Without one, save() writes an image with no
     * section and load() validates without committing anything.
     */
    engine::PredictionEngine *engine = nullptr;

    /**
     * On-disk generations kept by save (and scanned by load). 1 means
     * no rotation — a single file. Values < 1 are treated as 1.
     */
    int generations = kSnapshotGenerations;
};

/** Name of generation @p gen of @p path (gen 0 is @p path itself). */
std::string snapshotGenerationPath(const std::string &path, int gen);

/**
 * Serialize the engine's prediction cache to @p path, atomically and
 * durably (temp file + fsync + rename), rotating prior generations per
 * SnapshotOptions::generations.
 */
SnapshotStats saveSnapshot(const std::string &path,
                           const SnapshotOptions &opts = {});

/**
 * As saveSnapshot, but into a byte vector instead of a file. The
 * image is byte-identical to what saveSnapshot would have written for
 * the same live state.
 */
std::vector<std::uint8_t>
saveSnapshotToMemory(const SnapshotOptions &opts = {});

/**
 * Read @p path, validate it and commit its predictions. Falls back
 * through rotated generations (`path.g1`, ...) when newer files are
 * missing or fail validation; SnapshotStats::generation records which
 * one was used.
 * @throws SnapshotError when no generation validates (nothing
 * committed).
 */
SnapshotStats loadSnapshot(const std::string &path,
                           const SnapshotOptions &opts = {});

/**
 * As loadSnapshot, but from an in-memory image. Nothing stays bound
 * to @p data.
 */
SnapshotStats loadSnapshotFromMemory(const std::uint8_t *data,
                                     std::size_t size,
                                     const SnapshotOptions &opts = {});

/**
 * Run the full parse-and-validate phase on an in-memory image and
 * commit NOTHING, whatever the outcome: header, table, the section
 * hash and every entry. Returns what a load would have reported;
 * throws SnapshotError exactly when loadSnapshotFromMemory would. This
 * is the path the fuzz_snapshot harness and `facile_snaptool verify`
 * drive.
 */
SnapshotStats validateSnapshot(const std::uint8_t *data,
                               std::size_t size);

// ---- snapshot-as-data (facile_snaptool, merge/diff/compact) ----------------

/**
 * A fully-parsed view of one snapshot image: the operand
 * facile_snaptool's diff/merge/compact subcommands work on. File order is preserved exactly, so
 * buildSnapshotImage(parseSnapshotModel(img)) reproduces a
 * canonically-written image byte for byte.
 */
struct SnapshotModel
{
    /** Present even when empty iff the image carried the section. */
    bool hasPredictions = false;
    /** (opaque engine cache key, serialized prediction payload). */
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
        predictions;
};

/**
 * Deep-parse an image into a SnapshotModel, validating everything
 * validateSnapshot validates. @throws SnapshotError.
 */
SnapshotModel parseSnapshotModel(const std::uint8_t *data,
                                 std::size_t size);

/**
 * Serialize @p model. Deterministic: equal models yield equal bytes.
 * @throws SnapshotError on an unrepresentable model (a malformed
 * prediction payload).
 */
std::vector<std::uint8_t> buildSnapshotImage(const SnapshotModel &model);

/**
 * Order-independent set view over one or more SnapshotModels — the
 * merge layer behind `facile_snaptool merge|diff|compact`.
 * accumulate() folds models in; canonical() rebuilds a deterministic
 * model, so the same input set yields the same image whatever order
 * the inputs arrived in (merge commutativity).
 */
class SnapshotModelSet
{
  public:
    bool hasPredictions = false;
    std::map<std::string, std::vector<std::uint8_t>> predictions;

    /**
     * Fold @p m in; @p name labels the source in error messages.
     * @throws SnapshotError (message contains "merge conflict") when
     * two sources carry different cached predictions for one engine
     * key. Replicas running the same model code never conflict.
     */
    void accumulate(const SnapshotModel &m, const std::string &name);

    /** Rebuild a SnapshotModel with predictions sorted by key. */
    SnapshotModel canonical() const;
};

} // namespace facile::analysis

#endif // FACILE_ANALYSIS_SNAPSHOT_H
