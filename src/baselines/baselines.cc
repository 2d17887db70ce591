/**
 * @file
 * Re-implementations of the comparator predictors' modelling
 * philosophies (see DESIGN.md section 1 for the substitution rationale):
 *
 *  - LlvmMcaLike:   back-end scheduler simulation, no front end, no
 *                   micro/macro fusion awareness.
 *  - CqaLike:       detailed front end, no back-end dependence analysis.
 *  - OsacaLike:     analytical port pressure + issue width only.
 *  - IthemalLike:   learned-regressor proxy with deterministic
 *                   pseudo-noise standing in for LSTM prediction error.
 *  - LearningBlLike: the simple per-µop baseline of [7], using one fixed
 *                   (Skylake-family) port model for every µarch.
 *  - DiffTuneLike:  llvm-mca with "learned" (mis-tuned) parameters.
 */
#include "baselines/predictor_iface.h"

#include <algorithm>
#include <cmath>

#include "facile/dec.h"
#include "facile/ports.h"
#include "facile/precedence.h"
#include "facile/predec.h"
#include "facile/simple_components.h"
#include "sim/pipeline.h"
#include "support/math_util.h"
#include "uarch/config.h"

namespace facile::baselines {

double
SimulatorPredictor::predict(const bb::BasicBlock &blk, bool loop) const
{
    return sim::measuredThroughput(blk, loop);
}

namespace {

using uarch::PortMask;

/** Deterministic per-block hash for pseudo-noise in learned baselines. */
std::uint64_t
blockHash(const bb::BasicBlock &blk)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint8_t b : blk.bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Pseudo-noise factor in [1-amp, 1+amp], deterministic per block. */
double
noiseFactor(const bb::BasicBlock &blk, double amp, std::uint64_t salt)
{
    std::uint64_t h = blockHash(blk) ^ salt;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    double unit = static_cast<double>(h % 10000) / 10000.0; // [0,1)
    return 1.0 - amp + 2.0 * amp * unit;
}

/** Sum of unfused µops (no fusion awareness). */
int
unfusedUops(const bb::BasicBlock &blk)
{
    int n = 0;
    for (const auto &ai : blk.insts) {
        if (ai.fusedWithPrev)
            continue;
        n += std::max<std::size_t>(1, ai.info.portUops.size());
    }
    return n;
}

/**
 * Greedy per-port load assignment: each µop is placed on its currently
 * least-loaded admissible port. Unlike the optimal distribution Facile
 * assumes, greedy placement can be unbalanced — the characteristic
 * imprecision of scheduler simulation with simple heuristics.
 */
double
greedyPortBound(const bb::BasicBlock &blk, bool respectElimination)
{
    std::array<double, 16> load{};
    for (const auto &ai : blk.insts) {
        if (ai.fusedWithPrev)
            continue;
        if (respectElimination && ai.info.eliminated)
            continue;
        for (const auto &u : ai.info.portUops) {
            if (!u.ports)
                continue;
            int best = -1;
            for (int p = 0; p < 16; ++p) {
                if (!(u.ports & (1u << p)))
                    continue;
                if (best < 0 || load[p] < load[best])
                    best = p;
            }
            if (best >= 0)
                load[best] += 1.0;
        }
    }
    return *std::max_element(load.begin(), load.end());
}

/**
 * llvm-mca-like: dispatch-width bound over unfused µops plus greedy
 * port contention plus a dependence-height estimate; no front end.
 * Latencies come from the scheduling model "as shipped", which for
 * several instruction classes disagrees with reality — modeled as a
 * fixed per-class skew.
 */
class LlvmMcaLike : public ThroughputPredictor
{
  public:
    explicit LlvmMcaLike(std::string name = "llvm-mca-like",
                         double latencySkew = 1.0,
                         std::uint64_t noiseSalt = 0, double noiseAmp = 0.0)
        : name_(std::move(name)), latencySkew_(latencySkew),
          noiseSalt_(noiseSalt), noiseAmp_(noiseAmp)
    {}

    std::string name() const override { return name_; }

    double
    predict(const bb::BasicBlock &blk, bool /*loop*/) const override
    {
        const uarch::MicroArchConfig &cfg = uarch::config(blk.arch);

        // Dispatch bound: unfused µops through the issue stage (the
        // model does not know about micro or macro fusion).
        double dispatch =
            static_cast<double>(unfusedUops(blk)) / cfg.issueWidth;

        // Port contention with greedy placement; eliminated moves are
        // dispatched like ordinary µops (no move-elimination model).
        double portBound = greedyPortBound(blk, false);

        // Loop-carried dependence height with skewed latencies.
        double depBound = model::precedenceBound(blk) * latencySkew_;

        double tp = std::max({dispatch, portBound, depBound});
        if (noiseAmp_ > 0.0)
            tp *= noiseFactor(blk, noiseAmp_, noiseSalt_);
        return tp;
    }

  private:
    std::string name_;
    double latencySkew_;
    std::uint64_t noiseSalt_;
    double noiseAmp_;
};

/**
 * CQA-like: detailed front-end model (predecode, decode, DSB) and port
 * pressure, but no back-end model ("because of its complexity and lack
 * of documentation"). Its DECAN-style analysis does count instructions
 * on dependency paths, which we model as a dependence bound with
 * coarse, clamped latencies — it catches chains of simple operations
 * but underestimates high-latency ones.
 */
class CqaLike : public ThroughputPredictor
{
  public:
    std::string name() const override { return "CQA-like"; }

    double
    predict(const bb::BasicBlock &blk, bool loop) const override
    {
        model::ModelConfig cfg = {};
        cfg.usePrecedence = false;
        double tp = model::predict(blk, loop, cfg).throughput;

        // Coarse dependence bound: every instruction latency clamped
        // to 3 cycles (the tool has no per-µarch latency tables).
        bb::BasicBlock coarse = blk;
        for (std::size_t i = 0; i < coarse.insts.size(); ++i) {
            uops::InstrInfo &info = coarse.mutableInfo(i);
            info.latency = std::min(info.latency, 3);
        }
        tp = std::max(tp, model::precedenceBound(coarse));
        return tp;
    }
};

/**
 * OSACA-like: analytical port-pressure model with optimal distribution
 * plus the issue bound; no front end, no loop-carried dependence bound.
 * OSACA additionally reports a critical-path number but does not fold
 * it into the throughput prediction.
 */
class OsacaLike : public ThroughputPredictor
{
  public:
    std::string name() const override { return "OSACA-like"; }

    double
    predict(const bb::BasicBlock &blk, bool /*loop*/) const override
    {
        double portBound = model::ports(blk).throughput;
        double issueBound = model::issue(blk);
        return std::max(portBound, issueBound);
    }
};

/**
 * Ithemal-like: stands in for the LSTM regressor. Uses a feature-based
 * estimate (the back-end bounds blended the way a learned model
 * interpolates) with deterministic pseudo-noise of the magnitude
 * reported for Ithemal; trained on unrolled (TPU) measurements, so TPL
 * benchmarks inherit the TPU-biased front-end blindness.
 */
class IthemalLike : public ThroughputPredictor
{
  public:
    std::string name() const override { return "Ithemal-like"; }

    double
    predict(const bb::BasicBlock &blk, bool /*loop*/) const override
    {
        const uarch::MicroArchConfig &cfg = uarch::config(blk.arch);
        double issueBound =
            static_cast<double>(blk.issueUops()) / cfg.issueWidth;
        double portBound = model::ports(blk).throughput;
        double depBound = model::precedenceBound(blk);
        // Trained on *unrolled* measurements, the network learned the
        // legacy-decode front end as a feature — and applies it to loop
        // benchmarks too, where the DSB/LSD actually feed the pipeline.
        // That asymmetry is why Ithemal is markedly worse on BHiveL.
        double fe = model::predec(blk, true);
        // A regressor interpolates rather than taking a hard max.
        double tp = std::max({issueBound, portBound, depBound, fe});
        double slack = issueBound + portBound + depBound - 2.0 * tp;
        tp += 0.1 * std::max(0.0, slack);
        return tp * noiseFactor(blk, 0.10, 0x17e3a1);
    }
};

/**
 * learning-bl-like: the simple baseline of [7] — per-µop counts with a
 * single fixed port model (Skylake's) applied to every
 * microarchitecture, no front end, no dependence analysis.
 */
class LearningBlLike : public ThroughputPredictor
{
  public:
    std::string name() const override { return "learning-bl-like"; }

    double
    predict(const bb::BasicBlock &blk, bool /*loop*/) const override
    {
        // Re-annotate against one fixed (Haswell) database regardless of
        // the target µarch: the per-opcode parameters were fit once, and
        // carry residual fitting noise.
        bb::BasicBlock refBlk = bb::analyze(blk.bytes, uarch::UArch::HSW);
        double portBound = model::ports(refBlk).throughput;
        double issueBound = static_cast<double>(refBlk.issueUops()) / 4.0;
        double depBound = model::precedenceBound(refBlk) *
                          noiseFactor(blk, 0.12, 0x2f9e11);
        return std::max({portBound, issueBound, depBound});
    }
};

/**
 * DiffTune-like: llvm-mca with learned parameters. The learned latency
 * and dispatch parameters fit the unrolled training distribution but
 * transfer poorly, drastically so for loop benchmarks (cf. the >100%
 * BHiveL MAPE in Table 2): the learned dispatch width under-estimates
 * effective loop throughput sources (LSD/DSB), inflating predictions.
 */
class DiffTuneLike : public ThroughputPredictor
{
  public:
    std::string name() const override { return "DiffTune-like"; }

    double
    predict(const bb::BasicBlock &blk, bool loop) const override
    {
        // Learned per-mnemonic latencies: deterministic multiplicative
        // distortion in [0.4, 2.2].
        double dep = model::precedenceBound(blk);
        double depLearned = dep * noiseFactor(blk, 0.9, 0x9d1f07);

        // Learned dispatch cost per µop (absorbed front-end effects of
        // the training set into a constant).
        const double learnedDispatchCost = loop ? 0.55 : 0.31;
        double dispatch = unfusedUops(blk) * learnedDispatchCost;

        double portBound = greedyPortBound(blk, false) *
                           noiseFactor(blk, 0.4, 0x55aa33);

        return std::max({dispatch, portBound, depLearned});
    }
};

} // namespace

std::vector<std::unique_ptr<ThroughputPredictor>>
makeBaselines()
{
    std::vector<std::unique_ptr<ThroughputPredictor>> v;
    // The shipped scheduling models mis-state several latencies; a 15%
    // average skew reproduces that class of error.
    v.push_back(std::make_unique<LlvmMcaLike>("llvm-mca-like", 1.15));
    v.push_back(std::make_unique<CqaLike>());
    v.push_back(std::make_unique<OsacaLike>());
    v.push_back(std::make_unique<IthemalLike>());
    v.push_back(std::make_unique<LearningBlLike>());
    v.push_back(std::make_unique<DiffTuneLike>());
    return v;
}

std::unique_ptr<ThroughputPredictor>
makeBaseline(const std::string &name)
{
    for (auto &p : makeBaselines())
        if (p->name() == name)
            return std::move(p);
    if (name == "Facile")
        return std::make_unique<FacilePredictor>();
    if (name == "uiCA-like (ref. sim)")
        return std::make_unique<SimulatorPredictor>();
    throw std::invalid_argument("unknown predictor: " + name);
}

} // namespace facile::baselines
