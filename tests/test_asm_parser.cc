/**
 * @file
 * Assembly-text parser tests, including the round-trip property
 * parse(toString(inst)) == inst over generated instructions.
 */
#include <gtest/gtest.h>

#include <stdexcept>

#include "bhive/generator.h"
#include "isa/asm_parser.h"
#include "isa/builder.h"
#include "isa/encoder.h"

namespace facile::isa {
namespace {

TEST(AsmParser, SimpleRegReg)
{
    Inst i = parseInst("add rax, rbx");
    EXPECT_EQ(i.mnem, Mnemonic::ADD);
    EXPECT_EQ(i.ops[0].reg, RAX);
    EXPECT_EQ(i.ops[1].reg, RBX);
}

TEST(AsmParser, CaseInsensitiveAndComments)
{
    Inst i = parseInst("  ADD RAX, RBX   ; increment accumulator");
    EXPECT_EQ(i.mnem, Mnemonic::ADD);
}

TEST(AsmParser, Immediates)
{
    EXPECT_EQ(parseInst("add rax, 5").ops[1].imm, 5);
    EXPECT_EQ(parseInst("add rax, -7").ops[1].imm, -7);
    EXPECT_EQ(parseInst("add rax, 0x100").ops[1].imm, 256);
    EXPECT_EQ(parseInst("add rax, 5").ops[1].immWidth, 1);
    EXPECT_EQ(parseInst("add rax, 1000").ops[1].immWidth, 4);
    // 16-bit destination: imm16 (the LCP form).
    EXPECT_EQ(parseInst("add ax, 1000").ops[1].immWidth, 2);
}

TEST(AsmParser, MemoryOperands)
{
    Inst i = parseInst("mov rax, qword ptr [rbx+rcx*4+8]");
    ASSERT_TRUE(i.ops[1].isMem());
    EXPECT_EQ(i.ops[1].mem.base, RBX);
    EXPECT_EQ(i.ops[1].mem.index, RCX);
    EXPECT_EQ(i.ops[1].mem.scale, 4);
    EXPECT_EQ(i.ops[1].mem.disp, 8);
    EXPECT_EQ(i.ops[1].mem.width, 8);

    Inst neg = parseInst("mov eax, dword ptr [rsi-16]");
    EXPECT_EQ(neg.ops[1].mem.disp, -16);
    EXPECT_EQ(neg.ops[1].mem.width, 4);
}

TEST(AsmParser, MemWidthDefaultsToRegWidth)
{
    Inst i = parseInst("mov ecx, [rbx]");
    EXPECT_EQ(i.ops[1].mem.width, 4);
}

TEST(AsmParser, ConditionCodes)
{
    EXPECT_EQ(parseInst("jne -2").cc, Cond::NE);
    EXPECT_EQ(parseInst("jnz -2").cc, Cond::NE); // alias
    EXPECT_EQ(parseInst("ja -2").cc, Cond::NBE); // alias
    EXPECT_EQ(parseInst("sete al").mnem, Mnemonic::SETCC);
    EXPECT_EQ(parseInst("cmovge rax, rbx").cc, Cond::NL);
    EXPECT_EQ(parseInst("jmp -5").mnem, Mnemonic::JMP);
}

TEST(AsmParser, VexThreeOperand)
{
    Inst i = parseInst("vfmadd231pd xmm0, xmm1, xmm2");
    EXPECT_EQ(i.mnem, Mnemonic::VFMADD231PD);
    EXPECT_EQ(i.ops.size(), 3u);
}

TEST(AsmParser, MoreOperandsThanAnInstHoldsIsAParseError)
{
    EXPECT_EQ(parseInst("imul rax, rbx, 5").ops.size(), kMaxOperands);
    EXPECT_THROW(parseInst("imul rax, rbx, 5, 6"), ParseError);
    EXPECT_THROW(parseInst("vfmadd231pd xmm0, xmm1, xmm2, xmm3"),
                 ParseError);
}

TEST(AsmParser, BuildersRejectMoreOperandsThanAnInstHolds)
{
    EXPECT_THROW(make(Mnemonic::ADD, {R(RAX), R(RBX), R(RCX), R(RDX)}),
                 std::length_error);
    EXPECT_THROW(makeCC(Mnemonic::CMOVCC, Cond::E,
                        {R(RAX), R(RBX), R(RCX), R(RDX)}),
                 std::length_error);
    EXPECT_THROW(Inst(Mnemonic::ADD, {R(RAX), R(RBX), R(RCX), R(RDX)}),
                 std::length_error);
    Inst full = make(Mnemonic::IMUL, {R(RAX), R(RBX), I(5, 1)});
    EXPECT_THROW(full.ops.push_back(R(RCX)), std::length_error);
    EXPECT_EQ(full.ops.size(), kMaxOperands);
}

TEST(AsmParser, NopWithLength)
{
    Inst i = parseInst("nop5");
    EXPECT_EQ(i.mnem, Mnemonic::NOP);
    EXPECT_EQ(i.nopLen, 5);
    EXPECT_EQ(parseInst("nop").nopLen, 1);
}

TEST(AsmParser, Errors)
{
    EXPECT_THROW(parseInst("bogus rax"), ParseError);
    EXPECT_THROW(parseInst("add rax, nonsense"), ParseError);
    EXPECT_THROW(parseInst(""), ParseError);
}

TEST(AsmParser, Listing)
{
    auto insts = parseListing("add rax, rbx\n"
                              "; a comment line\n"
                              "\n"
                              "imul rcx, rax ; trailing comment\n"
                              "jne -2\n");
    ASSERT_EQ(insts.size(), 3u);
    EXPECT_EQ(insts[2].mnem, Mnemonic::JCC);
}

TEST(AsmParser, Hex)
{
    auto bytes = parseHex("48 01 D8");
    EXPECT_EQ(bytes, (std::vector<std::uint8_t>{0x48, 0x01, 0xD8}));
    EXPECT_EQ(parseHex("4801d8"), bytes);
    EXPECT_THROW(parseHex("4801d"), ParseError);
    EXPECT_THROW(parseHex("zz"), ParseError);
}

TEST(AsmParser, RoundTripThroughToString)
{
    // parse(toString(i)) must reproduce i for the whole generated suite.
    for (const auto &b : bhive::generateSuite(20231020, 6)) {
        for (const Inst &inst : b.bodyL) {
            std::string text = toString(inst);
            Inst parsed = parseInst(text);
            EXPECT_EQ(parsed.mnem, inst.mnem) << text;
            EXPECT_EQ(parsed.cc, inst.cc) << text;
            ASSERT_EQ(parsed.ops.size(), inst.ops.size()) << text;
            for (std::size_t i = 0; i < inst.ops.size(); ++i)
                EXPECT_EQ(parsed.ops[i], inst.ops[i])
                    << text << " operand " << i;
            // And the encodings agree byte for byte.
            EXPECT_EQ(encode(parsed), encode(inst)) << text;
        }
    }
}

} // namespace
} // namespace facile::isa
