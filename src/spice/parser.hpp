// SPICE frontend primitives shared by the deck elaborator and spec parser.
//
// The deck language itself (element cards, .model, .param, .subckt, ...) is
// parsed once, in deck/elaborator.hpp; deck::build_nominal_netlist wires an
// elaborated deck into a Netlist. This header keeps what every frontend
// stage needs: the error type that carries a deck location, and the one
// SPICE number parser.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace maopt::spice {

class ParseError : public std::runtime_error {
 public:
  /// `file` is the deck the offending line lives in and `include_chain` the
  /// stack of "path:line" frames that .include'd it (outermost first), so
  /// errors deep inside included libraries point at both the bad line and
  /// how the parser got there.
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
    std::string out = file + ":" + std::to_string(line);
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
/// Throws std::invalid_argument on malformed input and on a result that is
/// not finite ("nan", "inf", or a suffix that overflows: "1e308k").
double parse_spice_value(const std::string& token);

}  // namespace maopt::spice
