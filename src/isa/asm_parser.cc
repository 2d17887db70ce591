#include "isa/asm_parser.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>

#include "isa/builder.h"

namespace facile::isa {

namespace {

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r\n");
    std::size_t e = s.find_last_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    return s.substr(b, e - b + 1);
}

/** All register names to Reg. */
const std::map<std::string, Reg> &
regTable()
{
    static const std::map<std::string, Reg> table = [] {
        std::map<std::string, Reg> t;
        for (int i = 0; i < 16; ++i) {
            for (int w : {1, 2, 4, 8})
                t[regName(gpr(w, i))] = gpr(w, i);
            t["xmm" + std::to_string(i)] = xmm(i);
            t["ymm" + std::to_string(i)] = ymm(i);
        }
        return t;
    }();
    return table;
}

/** Mnemonic names (plain; condition-code forms handled separately). */
const std::map<std::string, Mnemonic> &
mnemonicTable()
{
    static const std::map<std::string, Mnemonic> table = [] {
        std::map<std::string, Mnemonic> t;
        for (int m = 0; m < static_cast<int>(Mnemonic::kNumMnemonics);
             ++m) {
            Mnemonic mn = static_cast<Mnemonic>(m);
            if (mn == Mnemonic::JCC || mn == Mnemonic::SETCC ||
                mn == Mnemonic::CMOVCC)
                continue;
            t[mnemonicName(mn)] = mn;
        }
        return t;
    }();
    return table;
}

/** Try to parse a condition-code suffixed mnemonic (j*, set*, cmov*). */
bool
parseCcMnemonic(const std::string &name, Mnemonic &mnem, Cond &cc)
{
    static const std::map<std::string, Cond> conds = {
        {"o", Cond::O},     {"no", Cond::NO},   {"b", Cond::B},
        {"c", Cond::B},     {"nae", Cond::B},   {"nb", Cond::NB},
        {"nc", Cond::NB},   {"ae", Cond::NB},   {"e", Cond::E},
        {"z", Cond::E},     {"ne", Cond::NE},   {"nz", Cond::NE},
        {"be", Cond::BE},   {"na", Cond::BE},   {"nbe", Cond::NBE},
        {"a", Cond::NBE},   {"s", Cond::S},     {"ns", Cond::NS},
        {"p", Cond::P},     {"np", Cond::NP},   {"l", Cond::L},
        {"nge", Cond::L},   {"nl", Cond::NL},   {"ge", Cond::NL},
        {"le", Cond::LE},   {"ng", Cond::LE},   {"nle", Cond::NLE},
        {"g", Cond::NLE},
    };
    auto match = [&](const std::string &prefix, Mnemonic m) {
        if (name.rfind(prefix, 0) != 0)
            return false;
        auto it = conds.find(name.substr(prefix.size()));
        if (it == conds.end())
            return false;
        mnem = m;
        cc = it->second;
        return true;
    };
    // "jmp" must not parse as j+mp.
    if (name != "jmp" && match("j", Mnemonic::JCC))
        return true;
    if (match("set", Mnemonic::SETCC))
        return true;
    if (match("cmov", Mnemonic::CMOVCC))
        return true;
    return false;
}

/** Parse a memory operand body (the text inside [ ]), plus width. */
Operand
parseMemOperand(const std::string &inside, int width)
{
    MemOp m;
    m.width = static_cast<std::uint8_t>(width);
    m.base = Reg{};
    m.index = Reg{};
    m.scale = 1;
    m.disp = 0;

    // Split on top-level '+' and '-' (keeping the sign for disp terms).
    std::vector<std::string> terms;
    std::string current;
    for (char c : inside) {
        if (c == '+' || c == '-') {
            if (!trim(current).empty())
                terms.push_back(trim(current));
            current = c == '-' ? "-" : "";
        } else {
            current += c;
        }
    }
    if (!trim(current).empty())
        terms.push_back(trim(current));

    for (const std::string &term : terms) {
        std::size_t star = term.find('*');
        if (star != std::string::npos) {
            std::string rname = trim(term.substr(0, star));
            std::string sname = trim(term.substr(star + 1));
            // Either reg*scale or scale*reg.
            auto rit = regTable().find(rname);
            if (rit != regTable().end()) {
                m.index = rit->second;
                m.scale = static_cast<std::uint8_t>(std::stoi(sname));
            } else {
                rit = regTable().find(sname);
                if (rit == regTable().end())
                    throw ParseError("bad scaled-index term: " + term);
                m.index = rit->second;
                m.scale = static_cast<std::uint8_t>(std::stoi(rname));
            }
            continue;
        }
        auto rit = regTable().find(term);
        if (rit != regTable().end()) {
            if (!m.base.valid())
                m.base = rit->second;
            else if (!m.index.valid())
                m.index = rit->second;
            else
                throw ParseError("too many registers in address: " + term);
            continue;
        }
        // Displacement (decimal or 0x hex, possibly negative).
        m.disp += static_cast<std::int32_t>(std::stoll(term, nullptr, 0));
    }
    if (!m.base.valid() && m.index.valid() && m.scale == 1) {
        m.base = m.index;
        m.index = Reg{};
    }
    return Operand::makeMem(m);
}

/** Parse one operand token. */
Operand
parseOperand(std::string tok, int &gprWidthHint)
{
    tok = trim(tok);
    int width = 0;
    struct WidthPrefix
    {
        const char *name;
        int width;
    };
    static const WidthPrefix prefixes[] = {
        {"byte ptr", 1},    {"word ptr", 2},   {"dword ptr", 4},
        {"qword ptr", 8},   {"xmmword ptr", 16}, {"ymmword ptr", 32},
    };
    for (const auto &p : prefixes) {
        if (tok.rfind(p.name, 0) == 0) {
            width = p.width;
            tok = trim(tok.substr(std::string(p.name).size()));
            break;
        }
    }

    if (!tok.empty() && tok.front() == '[') {
        if (tok.back() != ']')
            throw ParseError("unterminated memory operand: " + tok);
        if (width == 0)
            width = gprWidthHint ? gprWidthHint : 8;
        return parseMemOperand(tok.substr(1, tok.size() - 2), width);
    }

    auto rit = regTable().find(tok);
    if (rit != regTable().end()) {
        if (rit->second.isGpr())
            gprWidthHint = rit->second.width();
        return Operand::makeReg(rit->second);
    }

    // Immediate.
    try {
        std::int64_t v = std::stoll(tok, nullptr, 0);
        int immWidth;
        if (v >= -128 && v <= 127)
            immWidth = 1;
        else if (gprWidthHint == 2)
            immWidth = 2;
        else
            immWidth = 4;
        return Operand::makeImm(v, immWidth);
    } catch (const std::exception &) {
        throw ParseError("unrecognized operand: " + tok);
    }
}

} // namespace

Inst
parseInst(const std::string &rawLine)
{
    std::string line = rawLine;
    std::size_t comment = line.find(';');
    if (comment != std::string::npos)
        line = line.substr(0, comment);
    line = lower(trim(line));
    if (line.empty())
        throw ParseError("empty line");

    std::size_t space = line.find_first_of(" \t");
    std::string name = space == std::string::npos ? line
                                                  : line.substr(0, space);
    std::string rest =
        space == std::string::npos ? "" : trim(line.substr(space));

    // nopN: NOP with explicit encoded length.
    if (name.rfind("nop", 0) == 0 && name.size() > 3) {
        int len = std::stoi(name.substr(3));
        return nop(len);
    }

    Mnemonic mnem;
    Cond cc = Cond::None;
    auto it = mnemonicTable().find(name);
    if (it != mnemonicTable().end()) {
        mnem = it->second;
    } else if (!parseCcMnemonic(name, mnem, cc)) {
        throw ParseError("unknown mnemonic: " + name);
    }

    // Split operands on top-level commas (none appear inside [ ]).
    Operands ops;
    int widthHint = 0;
    if (!rest.empty()) {
        std::stringstream ss(rest);
        std::string tok;
        std::vector<std::string> toks;
        while (std::getline(ss, tok, ','))
            toks.push_back(tok);
        if (toks.size() > kMaxOperands)
            throw ParseError("more than " + std::to_string(kMaxOperands) +
                             " operands: " + rest);
        // First pass register tokens establish the width hint for
        // immediates and un-annotated memory operands.
        for (const auto &t : toks) {
            std::string tt = trim(t);
            auto rit = regTable().find(tt);
            if (rit != regTable().end() && rit->second.isGpr()) {
                widthHint = rit->second.width();
                break;
            }
        }
        for (const auto &t : toks)
            ops.push_back(parseOperand(t, widthHint));
    }

    Inst inst(mnem, cc, ops);

    // Instructions whose immediate is architecturally always imm8.
    switch (inst.mnem) {
      case Mnemonic::SHUFPS:
      case Mnemonic::PSLLD:
      case Mnemonic::PSRLD:
      case Mnemonic::SHL:
      case Mnemonic::SHR:
      case Mnemonic::SAR:
      case Mnemonic::ROL:
      case Mnemonic::ROR:
        if (!inst.ops.empty() && inst.ops.back().isImm())
            inst.ops.back().immWidth = 1;
        break;
      default:
        break;
    }
    return inst;
}

std::vector<Inst>
parseListing(const std::string &text)
{
    std::vector<Inst> insts;
    std::stringstream ss(text);
    std::string line;
    while (std::getline(ss, line)) {
        std::size_t comment = line.find(';');
        if (comment != std::string::npos)
            line = line.substr(0, comment);
        if (trim(line).empty())
            continue;
        insts.push_back(parseInst(line));
    }
    return insts;
}

std::vector<std::uint8_t>
parseHex(const std::string &text)
{
    std::vector<std::uint8_t> bytes;
    int nibbles = 0;
    std::uint8_t current = 0;
    for (char c : text) {
        int v;
        if (c >= '0' && c <= '9')
            v = c - '0';
        else if (c >= 'a' && c <= 'f')
            v = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F')
            v = c - 'A' + 10;
        else if (std::isspace(static_cast<unsigned char>(c)))
            continue;
        else
            throw ParseError("bad hex character");
        current = static_cast<std::uint8_t>((current << 4) | v);
        if (++nibbles == 2) {
            bytes.push_back(current);
            nibbles = 0;
            current = 0;
        }
    }
    if (nibbles != 0)
        throw ParseError("odd number of hex digits");
    return bytes;
}

} // namespace facile::isa
