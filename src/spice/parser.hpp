// SPICE-format netlist parser.
//
// Supports the element subset the simulator implements, enough to describe
// every testbench in this repo as a plain-text deck:
//
//   * comment        — lines starting with '*' or ';', blank lines
//   * R/C/L          — Rname n1 n2 value
//   * V/I            — Vname n+ n- [DC v] [AC mag] [PULSE(v1 v2 td tr tf pw per)]
//                      [PWL(t1 v1 t2 v2 ...)]
//   * E (VCVS)       — Ename p n cp cn gain
//   * M (MOSFET)     — Mname d g s b model [W=..] [L=..] [M=..]
//   * .model         — .model name NMOS|PMOS [VTO=..] [KP=..] [LAMBDAL=..]
//                      [COX=..] [COV=..] [CJW=..] [KF=..]
//
// Engineering suffixes are honored (f p n u m k meg g t); ground is node
// "0"/"gnd". Unknown cards raise ParseError with a line number.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "spice/devices.hpp"
#include "spice/mosfet.hpp"
#include "spice/netlist.hpp"

namespace maopt::spice {

class ParseError : public std::runtime_error {
 public:
  ParseError(int line, const std::string& message)
      : ParseError(std::string(), line, message, {}) {}

  /// Attributed form: `file` is the deck the offending line lives in and
  /// `include_chain` the stack of "path:line" frames that .include'd it
  /// (outermost first), so errors deep inside included libraries point at
  /// both the bad line and how the parser got there.
  ParseError(std::string file, int line, const std::string& message,
             std::vector<std::string> include_chain = {})
      : std::runtime_error(format(file, line, message, include_chain)),
        file_(std::move(file)),
        line_(line),
        include_chain_(std::move(include_chain)) {}

  int line() const { return line_; }
  const std::string& file() const { return file_; }
  const std::vector<std::string>& include_chain() const { return include_chain_; }

 private:
  static std::string format(const std::string& file, int line, const std::string& message,
                            const std::vector<std::string>& chain) {
    std::string out = file.empty() ? "line " + std::to_string(line)
                                   : file + ":" + std::to_string(line);
    if (!chain.empty()) {
      out += " (included from ";
      for (std::size_t i = 0; i < chain.size(); ++i) out += (i ? ", " : "") + chain[i];
      out += ")";
    }
    return out + ": " + message;
  }

  std::string file_;
  int line_;
  std::vector<std::string> include_chain_;
};

/// Parses "1.5k", "100f", "2meg", "1e-9" ... into a double. Multi-letter
/// suffixes MEG (1e6) and MIL (25.4e-6) are matched before the single-letter
/// engineering set, so "2MEGHz" and "5mil" do the right thing.
/// Throws std::invalid_argument on malformed input.
double parse_spice_value(const std::string& token);

struct ParsedNetlist {
  Netlist netlist;
  std::map<std::string, Device*> devices;       ///< by element name (upper-cased)
  std::map<std::string, MosModel> models;       ///< .model cards (upper-cased)
  std::vector<std::string> warnings;            ///< non-fatal issues ("line N: ...")

  /// Typed device lookup; throws std::out_of_range / std::bad_cast-style
  /// errors as std::runtime_error for friendlier messages.
  template <typename T>
  T* device(const std::string& name) const {
    const auto it = devices.find(name);
    if (it == devices.end()) throw std::runtime_error("no device named '" + name + "'");
    T* typed = dynamic_cast<T*>(it->second);
    if (typed == nullptr) throw std::runtime_error("device '" + name + "' has a different type");
    return typed;
  }
};

/// Parses a full deck; the returned netlist is prepare()d and ready for
/// analysis. Unknown dot-cards are collected into `warnings` instead of
/// being dropped silently; `.end` terminates parsing.
ParsedNetlist parse_netlist(const std::string& deck);

}  // namespace maopt::spice
