#include "spice/parser.hpp"

#include <cctype>
#include <cmath>

namespace maopt::spice {

namespace {

/// Scales `v` by an engineering suffix (upper-cased, possibly followed by
/// unit letters). Multi-letter suffixes first — "MEG"/"MIL" must win over
/// milli even with trailing unit letters ("2MEGHz", "5milInch"); trailing
/// unit letters are otherwise ignored SPICE-style ("10pF" == "10p").
double scale(double v, const std::string& suffix, const std::string& token) {
  if (suffix.empty()) return v;
  if (suffix.compare(0, 3, "MEG") == 0) return v * 1e6;
  if (suffix.compare(0, 3, "MIL") == 0) return v * 25.4e-6;
  switch (suffix[0]) {
    case 'T': return v * 1e12;
    case 'G': return v * 1e9;
    case 'K': return v * 1e3;
    case 'M': return v * 1e-3;
    case 'U': return v * 1e-6;
    case 'N': return v * 1e-9;
    case 'P': return v * 1e-12;
    case 'F': return v * 1e-15;
    default:
      throw std::invalid_argument("unknown suffix '" + suffix + "' in '" + token + "'");
  }
}

}  // namespace

double parse_spice_value(const std::string& token) {
  if (token.empty()) throw std::invalid_argument("empty value");
  std::size_t pos = 0;
  double v;
  try {
    v = std::stod(token, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("malformed value '" + token + "'");
  }
  std::string suffix = token.substr(pos);
  for (char& c : suffix) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  const double scaled = scale(v, suffix, token);
  if (!std::isfinite(scaled)) throw std::invalid_argument("non-finite value '" + token + "'");
  return scaled;
}

}  // namespace maopt::spice
