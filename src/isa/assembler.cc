#include "src/isa/assembler.h"

#include <array>
#include <cctype>
#include <cstdio>
#include <optional>

#include "src/isa/isa.h"

namespace ckisa {
namespace {

// Strip comments, split a line into a label (optional) and operands.
std::string StripComment(std::string_view line) {
  size_t pos = line.find_first_of(";#");
  std::string s(pos == std::string_view::npos ? line : line.substr(0, pos));
  return s;
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string cur;
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',' || c == '(' || c == ')') {
      if (!cur.empty()) {
        tokens.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) {
    tokens.push_back(cur);
  }
  return tokens;
}

std::optional<uint8_t> ParseRegister(const std::string& name) {
  static const std::map<std::string, uint8_t> kAliases = [] {
    std::map<std::string, uint8_t> m;
    m["zero"] = 0;
    m["ra"] = 1;
    m["sp"] = 2;
    m["gp"] = 3;
    // Register banks: a0-a5, t0-t7, s0-s7, k0-k5.
    struct Bank {
      char prefix;
      int count;
      int first;
    };
    for (Bank bank : {Bank{'a', 6, 4}, Bank{'t', 8, 10}, Bank{'s', 8, 18}, Bank{'k', 6, 26}}) {
      for (int i = 0; i < bank.count; ++i) {
        const char alias[] = {bank.prefix, static_cast<char>('0' + i), '\0'};
        m[alias] = static_cast<uint8_t>(bank.first + i);
      }
    }
    return m;
  }();

  auto it = kAliases.find(name);
  if (it != kAliases.end()) {
    return it->second;
  }
  if (name.size() >= 2 && name[0] == 'r') {
    int n = 0;
    for (size_t i = 1; i < name.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(name[i]))) {
        return std::nullopt;
      }
      n = n * 10 + (name[i] - '0');
    }
    if (n < 32) {
      return std::optional<uint8_t>(static_cast<uint8_t>(n));
    }
  }
  return std::nullopt;
}

std::optional<int64_t> ParseNumber(const std::string& text) {
  if (text.empty()) {
    return std::nullopt;
  }
  size_t i = 0;
  bool negative = false;
  if (text[0] == '-') {
    negative = true;
    i = 1;
  }
  if (i >= text.size()) {
    return std::nullopt;
  }
  int base = 10;
  if (text.size() > i + 2 && text[i] == '0' && (text[i + 1] == 'x' || text[i + 1] == 'X')) {
    base = 16;
    i += 2;
  }
  int64_t value = 0;
  for (; i < text.size(); ++i) {
    char c = static_cast<char>(std::tolower(static_cast<unsigned char>(text[i])));
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      digit = 10 + (c - 'a');
    } else {
      return std::nullopt;
    }
    value = value * base + digit;
  }
  return negative ? -value : value;
}

struct LineStatement {
  std::vector<std::string> labels;
  std::vector<std::string> tokens;  // [0] = mnemonic
  int line_number = 0;
};

// The instruction-table row spelled `mnemonic`, or null.
const OpInfo* FindOp(const std::string& mnemonic) {
  for (const OpInfo& info : kOps) {
    if (mnemonic == info.mnemonic) {
      return &info;
    }
  }
  return nullptr;
}

}  // namespace

AssembleResult Assemble(std::string_view source, uint32_t base) {
  AssembleResult result;
  Program& prog = result.program;
  prog.base = base;

  auto fail = [&](int line, const std::string& message) {
    result.ok = false;
    result.error = "line " + std::to_string(line) + ": " + message;
    return result;
  };

  // Split lines, collect statements.
  std::vector<LineStatement> statements;
  {
    int line_number = 0;
    size_t start = 0;
    while (start <= source.size()) {
      size_t end = source.find('\n', start);
      std::string_view raw =
          source.substr(start, end == std::string_view::npos ? std::string_view::npos : end - start);
      start = (end == std::string_view::npos) ? source.size() + 1 : end + 1;
      ++line_number;

      std::string line = StripComment(raw);
      LineStatement st;
      st.line_number = line_number;

      // Peel leading labels ("name:").
      for (;;) {
        size_t nonspace = line.find_first_not_of(" \t");
        if (nonspace == std::string::npos) {
          break;
        }
        size_t colon = line.find(':');
        size_t first_space = line.find_first_of(" \t", nonspace);
        if (colon != std::string::npos && (first_space == std::string::npos || colon < first_space)) {
          st.labels.push_back(line.substr(nonspace, colon - nonspace));
          line = line.substr(colon + 1);
        } else {
          break;
        }
      }

      st.tokens = Tokenize(line);
      if (!st.labels.empty() || !st.tokens.empty()) {
        statements.push_back(std::move(st));
      }
    }
  }

  // Pass 1: assign addresses to labels.
  {
    uint32_t loc = base;
    for (const LineStatement& st : statements) {
      for (const std::string& label : st.labels) {
        if (prog.labels.count(label) != 0) {
          return fail(st.line_number, "duplicate label '" + label + "'");
        }
        prog.labels[label] = loc;
      }
      if (st.tokens.empty()) {
        continue;
      }
      const std::string& m = st.tokens[0];
      if (m == ".org") {
        if (st.tokens.size() != 2) {
          return fail(st.line_number, ".org needs an address");
        }
        auto addr = ParseNumber(st.tokens[1]);
        if (!addr || *addr < base) {
          return fail(st.line_number, ".org address invalid or before base");
        }
        loc = static_cast<uint32_t>(*addr);
        // Re-bind labels on this line to the new location.
        for (const std::string& label : st.labels) {
          prog.labels[label] = loc;
        }
      } else if (m == ".word") {
        loc += 4;
      } else if (m == ".space") {
        auto n = ParseNumber(st.tokens.size() == 2 ? st.tokens[1] : "");
        if (!n || *n < 0) {
          return fail(st.line_number, ".space needs a byte count");
        }
        loc += static_cast<uint32_t>((*n + 3) & ~int64_t{3});
      } else {
        if (FindOp(m) == nullptr && m != "li" && m != "la" && m != "mv" && m != "j" &&
            m != "call" && m != "ret") {
          return fail(st.line_number, "unknown mnemonic '" + m + "'");
        }
        loc += (m == "li" || m == "la") ? 8 : 4;  // pass 1 needs exact sizes
      }
    }
  }

  // Pass 2: encode.
  auto resolve = [&](const std::string& text) -> std::optional<int64_t> {
    if (std::optional<int64_t> number = ParseNumber(text)) {
      return number;
    }
    auto it = prog.labels.find(text);
    return it != prog.labels.end() ? std::optional<int64_t>(it->second) : std::nullopt;
  };

  auto emit_at = [&](uint32_t loc, uint32_t word) {
    uint32_t index = (loc - base) / 4;
    if (index >= prog.words.size()) {
      prog.words.resize(index + 1, 0);
    }
    prog.words[index] = word;
  };

  uint32_t loc = base;
  for (const LineStatement& st : statements) {
    if (st.tokens.empty()) {
      continue;
    }
    const std::string& m = st.tokens[0];
    const int line = st.line_number;
    const auto& toks = st.tokens;

    // Operand readers: each clears `ok` on a missing or malformed operand.
    bool ok = true;
    auto reg = [&](size_t i) -> uint32_t {
      auto r = i < toks.size() ? ParseRegister(toks[i]) : std::nullopt;
      ok = ok && r.has_value();
      return r.value_or(0);
    };
    auto value = [&](size_t i, int64_t lo = INT64_MIN, int64_t hi = INT64_MAX) -> int64_t {
      auto v = i < toks.size() ? resolve(toks[i]) : std::nullopt;
      ok = ok && v.has_value() && *v >= lo && *v <= hi;
      return v.value_or(0);
    };
    // A branch or jump target, as a word offset from the next pc.
    auto offset = [&](size_t i) -> int64_t {
      int64_t off = (value(i) - (static_cast<int64_t>(loc) + 4)) / 4;
      ok = ok && off >= -32768 && off <= 32767;
      return off;
    };

    if (m == ".org") {
      loc = static_cast<uint32_t>(*ParseNumber(toks[1]));
      continue;
    }
    if (m == ".space") {
      int64_t n = *ParseNumber(toks[1]);
      uint32_t padded = static_cast<uint32_t>((n + 3) & ~int64_t{3});
      for (uint32_t i = 0; i < padded; i += 4) {
        emit_at(loc + i, 0);
      }
      loc += padded;
      continue;
    }

    uint32_t words[2] = {0, 0};
    uint32_t count = 1;
    const OpInfo* info = FindOp(m);
    if (m == ".word") {
      words[0] = static_cast<uint32_t>(value(1));
      ok = ok && toks.size() == 2;
    } else if (m == "li" || m == "la") {  // pseudo-instructions from here
      uint32_t rd = reg(1);
      uint32_t v = static_cast<uint32_t>(value(2));
      words[0] = Encode(Op::kLui, rd, 0, v >> 16);
      words[1] = Encode(Op::kOri, rd, rd, v & 0xffff);
      count = 2;
    } else if (m == "mv") {
      words[0] = Encode(Op::kAddi, reg(1), reg(2), 0);
    } else if (m == "j" || m == "call") {
      words[0] = Encode(Op::kJal, m == "call" ? kRegRa : kRegZero, 0, offset(1));
    } else if (m == "ret") {
      words[0] = Encode(Op::kJalr, kRegZero, kRegRa, 0);
    } else if (info == nullptr) {
      return fail(line, "unknown mnemonic '" + m + "'");
    } else {
      const Op op = static_cast<Op>(info - kOps);
      switch (info->format) {
        case Format::kBare:
          words[0] = Encode(op, 0, 0, 0);
          break;
        case Format::kR3:
          words[0] = EncodeR(op, reg(1), reg(2), reg(3));
          break;
        case Format::kI2:
          words[0] = Encode(op, reg(1), reg(2), value(3, -32768, 65535));
          break;
        case Format::kLui:
          words[0] = Encode(op, reg(1), 0, value(2));
          break;
        case Format::kMem:  // "lw rd, imm(rs1)" tokenizes to [lw, rd, imm, rs1]
          words[0] = Encode(op, reg(1), reg(3), value(2, -32768, 32767));
          break;
        case Format::kBranch:
          words[0] = Encode(op, reg(1), reg(2), offset(3));
          break;
        case Format::kJal:
          words[0] = Encode(op, reg(1), 0, offset(2));
          break;
        case Format::kJalr:
          words[0] = Encode(op, reg(1), reg(2), toks.size() >= 4 ? value(3) : 0);
          break;
        case Format::kTrap:
          words[0] = Encode(op, 0, 0, value(1));
          break;
      }
    }
    if (!ok) {
      return fail(line, "bad operands for '" + m + "'");
    }
    for (uint32_t w = 0; w < count; ++w, loc += 4) {
      emit_at(loc, words[w]);
    }
  }

  result.ok = true;
  return result;
}

std::string Disassemble(uint32_t word) {
  Decoded d = Decode(word);
  const OpInfo* info = InfoOf(d.op);
  char buf[96];
  if (info == nullptr) {
    std::snprintf(buf, sizeof(buf), ".word 0x%08x", word);
    return buf;
  }
  const char* m = info->mnemonic.data();
  // Branch and jal targets print as the absolute target of an instruction at
  // pc 0, which Assemble at base 0 reads back.
  const int target = 4 + d.imm * 4;
  switch (info->format) {
    case Format::kBare:
      return m;
    case Format::kR3:
      std::snprintf(buf, sizeof(buf), "%s r%d, r%d, r%d", m, d.rd, d.rs1, d.rs2);
      break;
    case Format::kI2:
    case Format::kJalr:
      std::snprintf(buf, sizeof(buf), "%s r%d, r%d, %d", m, d.rd, d.rs1, d.imm);
      break;
    case Format::kLui:
      std::snprintf(buf, sizeof(buf), "%s r%d, %d", m, d.rd, d.imm & 0xffff);
      break;
    case Format::kMem:
      std::snprintf(buf, sizeof(buf), "%s r%d, %d(r%d)", m, d.rd, d.imm, d.rs1);
      break;
    case Format::kBranch:
      std::snprintf(buf, sizeof(buf), "%s r%d, r%d, %d", m, d.rd, d.rs1, target);
      break;
    case Format::kJal:
      std::snprintf(buf, sizeof(buf), "%s r%d, %d", m, d.rd, target);
      break;
    case Format::kTrap:
      std::snprintf(buf, sizeof(buf), "%s %d", m, d.imm & 0xffff);
      break;
  }
  return buf;
}

}  // namespace ckisa
