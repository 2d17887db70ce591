/**
 * @file
 * Read/write-set semantics tests: RMW reads, partial-width merges,
 * flag groups, zero idioms, and stack-engine values.
 */
#include <gtest/gtest.h>

#include <vector>

#include "isa/builder.h"
#include "isa/semantics.h"

namespace facile::isa {
namespace {

bool
contains(const ValueSet &v, int x)
{
    return v.contains(x);
}

std::vector<int>
ids(const ValueSet &v)
{
    std::vector<int> out;
    for (int id : v)
        out.push_back(id);
    return out;
}

TEST(Semantics, SetsIterateAscendingWithoutDuplicates)
{
    // adc al, [r9 + rax*2] reads rax three times (merge, index, RMW
    // source), r9 and CF; writes rax and both flag groups.
    RwSets rw = instRw(
        make(Mnemonic::ADC, {R(AL), M(memIdx(R9, RAX, 2, 0, 1))}));
    EXPECT_EQ(ids(rw.reads), (std::vector<int>{0, 9, kValCf}));
    EXPECT_EQ(ids(rw.writes), (std::vector<int>{0, kValCf, kValFlags}));
    EXPECT_EQ(rw.reads.size(), 3u);

    // Every id, lowest and highest included, round-trips.
    ValueSet all;
    for (int v = kNumValues - 1; v >= 0; --v)
        all.insert(v);
    std::vector<int> want;
    for (int v = 0; v < kNumValues; ++v)
        want.push_back(v);
    EXPECT_EQ(ids(all), want);
}

TEST(Semantics, AddRegRegReadsBothWritesDstAndFlags)
{
    RwSets rw = instRw(make(Mnemonic::ADD, {R(RAX), R(RBX)}));
    EXPECT_TRUE(contains(rw.reads, 0));
    EXPECT_TRUE(contains(rw.reads, 3));
    EXPECT_TRUE(contains(rw.writes, 0));
    EXPECT_TRUE(contains(rw.writes, kValCf));
    EXPECT_TRUE(contains(rw.writes, kValFlags));
    EXPECT_FALSE(rw.depBreaking);
}

TEST(Semantics, MovDoesNotReadDst)
{
    RwSets rw = instRw(make(Mnemonic::MOV, {R(RAX), R(RBX)}));
    EXPECT_FALSE(contains(rw.reads, 0));
    EXPECT_TRUE(contains(rw.reads, 3));
    EXPECT_TRUE(contains(rw.writes, 0));
    EXPECT_TRUE(rw.writes.size() == 1);
}

TEST(Semantics, PartialWidthWriteMerges)
{
    // mov al, bl reads the old rax (merge into low byte).
    RwSets rw = instRw(make(Mnemonic::MOV, {R(AL), R(BL)}));
    EXPECT_TRUE(contains(rw.reads, 0));
    // mov eax, ebx zeroes the upper half: no merge.
    RwSets rw32 = instRw(make(Mnemonic::MOV, {R(EAX), R(EBX)}));
    EXPECT_FALSE(contains(rw32.reads, 0));
}

TEST(Semantics, IncPreservesCf)
{
    RwSets rw = instRw(make(Mnemonic::INC, {R(RAX)}));
    EXPECT_FALSE(contains(rw.writes, kValCf));
    EXPECT_TRUE(contains(rw.writes, kValFlags));
}

TEST(Semantics, AdcReadsCf)
{
    RwSets rw = instRw(make(Mnemonic::ADC, {R(RAX), R(RBX)}));
    EXPECT_TRUE(contains(rw.reads, kValCf));
}

TEST(Semantics, CondReadsDependOnCc)
{
    RwSets jb = instRw(makeCC(Mnemonic::JCC, Cond::B, {I(-2, 1)}));
    EXPECT_TRUE(contains(jb.reads, kValCf));
    EXPECT_FALSE(contains(jb.reads, kValFlags));

    RwSets je = instRw(makeCC(Mnemonic::JCC, Cond::E, {I(-2, 1)}));
    EXPECT_FALSE(contains(je.reads, kValCf));
    EXPECT_TRUE(contains(je.reads, kValFlags));

    RwSets jbe = instRw(makeCC(Mnemonic::JCC, Cond::BE, {I(-2, 1)}));
    EXPECT_TRUE(contains(jbe.reads, kValCf));
    EXPECT_TRUE(contains(jbe.reads, kValFlags));
}

TEST(Semantics, ZeroIdioms)
{
    EXPECT_TRUE(isZeroIdiom(make(Mnemonic::XOR, {R(RAX), R(RAX)})));
    EXPECT_TRUE(isZeroIdiom(make(Mnemonic::SUB, {R(EAX), R(EAX)})));
    EXPECT_TRUE(isZeroIdiom(make(Mnemonic::PXOR, {R(XMM0), R(XMM0)})));
    EXPECT_TRUE(isZeroIdiom(
        make(Mnemonic::VPXOR, {R(XMM1), R(XMM0), R(XMM0)})));
    EXPECT_FALSE(isZeroIdiom(make(Mnemonic::XOR, {R(RAX), R(RBX)})));
    // 16-bit forms merge the upper bits: not dependency-breaking.
    EXPECT_FALSE(isZeroIdiom(make(Mnemonic::XOR, {R(AX), R(AX)})));
    EXPECT_FALSE(isZeroIdiom(make(Mnemonic::ADD, {R(RAX), R(RAX)})));
}

TEST(Semantics, ZeroIdiomBreaksDependency)
{
    RwSets rw = instRw(make(Mnemonic::XOR, {R(RAX), R(RAX)}));
    EXPECT_TRUE(rw.depBreaking);
    EXPECT_FALSE(contains(rw.reads, 0));
    EXPECT_TRUE(contains(rw.writes, 0));
}

TEST(Semantics, MemOperandReadsAddressRegs)
{
    RwSets rw = instRw(
        make(Mnemonic::MOV, {R(RAX), M(memIdx(RBX, RCX, 4, 8))}));
    EXPECT_TRUE(contains(rw.reads, 3)); // rbx
    EXPECT_TRUE(contains(rw.reads, 1)); // rcx
}

TEST(Semantics, StoreReadsDataAndAddress)
{
    RwSets rw = instRw(make(Mnemonic::MOV, {M(mem(RBX, 8)), R(RDX)}));
    EXPECT_TRUE(contains(rw.reads, 3));
    EXPECT_TRUE(contains(rw.reads, 2));
    EXPECT_TRUE(rw.writes.empty()); // memory is not a tracked value
}

TEST(Semantics, PushPopUseRsp)
{
    RwSets push = instRw(make(Mnemonic::PUSH, {R(RAX)}));
    EXPECT_TRUE(contains(push.reads, 4));
    EXPECT_TRUE(contains(push.writes, 4));
    RwSets pop = instRw(make(Mnemonic::POP, {R(RAX)}));
    EXPECT_TRUE(contains(pop.writes, 0));
    EXPECT_TRUE(contains(pop.writes, 4));
}

TEST(Semantics, DivReadsAndWritesRaxRdx)
{
    RwSets rw = instRw(make(Mnemonic::DIV, {R(RCX)}));
    EXPECT_TRUE(contains(rw.reads, 0));
    EXPECT_TRUE(contains(rw.reads, 2));
    EXPECT_TRUE(contains(rw.writes, 0));
    EXPECT_TRUE(contains(rw.writes, 2));
}

TEST(Semantics, ShiftByClReadsCl)
{
    RwSets rw = instRw(make(Mnemonic::SHL, {R(RAX), R(CL)}));
    EXPECT_TRUE(contains(rw.reads, 1));
}

TEST(Semantics, FmaReadsAccumulator)
{
    RwSets rw = instRw(
        make(Mnemonic::VFMADD231PD, {R(XMM0), R(XMM1), R(XMM2)}));
    EXPECT_TRUE(contains(rw.reads, 16 + 0));
    EXPECT_TRUE(contains(rw.reads, 16 + 1));
    EXPECT_TRUE(contains(rw.reads, 16 + 2));
    EXPECT_TRUE(contains(rw.writes, 16 + 0));
}

TEST(Semantics, VexNonFmaDoesNotReadDst)
{
    RwSets rw =
        instRw(make(Mnemonic::VADDPD, {R(XMM0), R(XMM1), R(XMM2)}));
    EXPECT_FALSE(contains(rw.reads, 16 + 0));
}

TEST(Semantics, CmovReadsDstSrcAndFlags)
{
    RwSets rw = instRw(
        makeCC(Mnemonic::CMOVCC, Cond::E, {R(RAX), R(RBX)}));
    EXPECT_TRUE(contains(rw.reads, 0));
    EXPECT_TRUE(contains(rw.reads, 3));
    EXPECT_TRUE(contains(rw.reads, kValFlags));
}

TEST(Semantics, NopReadsAndWritesNothing)
{
    RwSets rw = instRw(nop(5));
    EXPECT_TRUE(rw.reads.empty());
    EXPECT_TRUE(rw.writes.empty());
}

} // namespace
} // namespace facile::isa
