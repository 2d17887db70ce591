/**
 * @file
 * Predecoder model tests against hand-computed values of the paper's
 * formulas (section 4.3).
 */
#include <gtest/gtest.h>

#include "bb/basic_block.h"
#include "facile/predec.h"
#include "isa/builder.h"

namespace facile::model {
namespace {

using namespace facile::isa;
using facile::uarch::UArch;

bb::BasicBlock
blockOf(std::vector<Inst> insts, UArch arch = UArch::SKL)
{
    return bb::analyze(insts, arch);
}

TEST(Predec, SixteenByteAlignedSimpleCase)
{
    // Four 4-byte instructions = 16 bytes: one block, 4 ends, no
    // crossings: ceil(4/5) = 1 cycle per iteration, u = 1.
    std::vector<Inst> insts(4, nop(4));
    EXPECT_DOUBLE_EQ(predec(blockOf(insts), true), 1.0);
    EXPECT_DOUBLE_EQ(predec(blockOf(insts), false), 1.0);
}

TEST(Predec, MoreThanFiveInstructionsPerBlock)
{
    // Eight 2-byte instructions = 16 bytes: L(0)=8 -> ceil(8/5)=2.
    std::vector<Inst> insts(8, nop(2));
    EXPECT_DOUBLE_EQ(predec(blockOf(insts), true), 2.0);
}

TEST(Predec, UnrollingAlignment)
{
    // One 3-byte instruction (48 01 d8): u = lcm(3,16)/3 = 16 copies,
    // 48 bytes = 3 blocks. Instances start at 0,3,...,45; the nominal
    // opcode sits at start+1 (REX is a prefix), last byte at start+2.
    //   Block 0: ends at 2,5,8,11,14          -> L=5; O=0 (instr @15 has
    //            its opcode at 16, i.e. already in block 1)
    //   Block 1: ends at 17,20,23,26,29       -> L=5; instr @30 ends at
    //            32 with opcode at 31          -> O=1 => 6 slots
    //   Block 2: ends at 32,35,38,41,44,47    -> L=6
    // Cycles: ceil(5/5)+ceil(6/5)+ceil(6/5) = 1+2+2 = 5; 5/16 = 0.3125.
    std::vector<Inst> insts = {make(Mnemonic::ADD, {R(RAX), R(RBX)})};
    bb::BasicBlock blk = blockOf(insts);
    ASSERT_EQ(blk.lengthBytes(), 3);
    EXPECT_DOUBLE_EQ(predec(blk, true), 0.3125);
}

TEST(Predec, LoopModeUsesFixedLayout)
{
    // 24 bytes: blocks [0,16) and [16,24). Six 4-byte nops.
    std::vector<Inst> insts(6, nop(4));
    bb::BasicBlock blk = blockOf(insts);
    // L = {4, 2}, O = {0, 0}: ceil(4/5) + ceil(2/5) = 2 cycles.
    EXPECT_DOUBLE_EQ(predec(blk, false), 2.0);
}

TEST(Predec, LcpPenaltyThreeCyclesSerial)
{
    // A block consisting only of LCP instructions: each pays the 3-cycle
    // penalty minus the pipelined overlap with the previous block.
    // Four LCP instructions of 5 bytes each = 20 bytes; u = 4 copies =
    // 80 bytes = 5 blocks.
    std::vector<Inst> insts(4, make(Mnemonic::ADD, {R(AX), I(0x1234, 2)}));
    bb::BasicBlock blk = blockOf(insts);
    ASSERT_TRUE(blk.insts[0].dec.lcp);
    double tp = predec(blk, true);
    // Each iteration has 4 LCP instructions; the penalty dominates:
    // close to 3 cycles per LCP plus the base predecode cycles, minus
    // the pipelined overlap with the previous block.
    EXPECT_GT(tp, 8.0);
    EXPECT_LE(tp, 14.0);
}

TEST(Predec, SimplePredecIsLengthOver16)
{
    std::vector<Inst> insts(6, nop(4));
    EXPECT_DOUBLE_EQ(simplePredec(blockOf(insts)), 24.0 / 16.0);
}

TEST(Predec, SimplePredecUnderestimatesDenseBlocks)
{
    // SimplePredec assumes one block per cycle; with > 5 instructions
    // per 16 bytes the full model must predict more cycles.
    std::vector<Inst> insts(16, nop(2));
    bb::BasicBlock blk = blockOf(insts);
    EXPECT_GT(predec(blk, true), simplePredec(blk));
}

TEST(Predec, EmptyBlock)
{
    bb::BasicBlock blk;
    blk.arch = UArch::SKL;
    EXPECT_DOUBLE_EQ(predec(blk, true), 0.0);
    EXPECT_DOUBLE_EQ(simplePredec(blk), 0.0);
}

TEST(Predec, CrossingInstructionCountsInBothBlocks)
{
    // 5-byte nops: 16/5 -> instruction at offset 15 crosses into block 1
    // with its opcode in block 0.
    std::vector<Inst> insts(16, nop(5)); // 80 bytes, exactly 5 blocks
    bb::BasicBlock blk = blockOf(insts);
    // Per 16-byte block: slots alternate between 3 and 4 with crossings:
    // total slots = 16 ends + 4 crossings (every block boundary not
    // aligned with an instruction start) = 20 over 5 blocks.
    double tp = predec(blk, true);
    EXPECT_GE(tp, 5.0 / 16.0 * 5); // at least one cycle per block
}

} // namespace
} // namespace facile::model
