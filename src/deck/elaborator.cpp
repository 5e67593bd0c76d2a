#include "deck/elaborator.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/hash.hpp"

namespace maopt::deck {

namespace {

namespace fs = std::filesystem;
using spice::ParseError;

constexpr int kMaxIncludeDepth = 20;
constexpr int kMaxSubcktDepth = 20;
/// Flattened elements one deck may produce. The largest shipped deck has 10
/// element cards, so 10,000 leaves three orders of magnitude of room.
/// Without a cap, .subckt fan-out grows exponentially in deck size: 7 nested
/// levels of 10 instances each are 10^7 elements, gigabytes, from under
/// 1 KB of text.
constexpr std::size_t kMaxElements = 10000;

std::string upper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// One logical deck line (continuations joined) with full provenance.
struct Line {
  std::string text;
  std::string file;                 ///< path as the user wrote it
  int number = 0;                   ///< 1-based line in `file`
  std::vector<std::string> chain;   ///< include stack, outermost first ("path:line")
};

[[noreturn]] void fail(const Line& line, const std::string& message) {
  throw ParseError(line.file, line.number, message, line.chain);
}

/// Splits a logical line into tokens. Whitespace, '(', ')', ',' separate;
/// '=' is its own token; '{...}' and '\'...\'' become a single token holding
/// the inner text verbatim (expression bodies keep their spaces); '"..."'
/// groups a quoted path.
std::vector<std::string> tokenize(const Line& line) {
  std::vector<std::string> tokens;
  std::string cur;
  auto flush = [&] {
    if (!cur.empty()) {
      tokens.push_back(cur);
      cur.clear();
    }
  };
  const std::string& s = line.text;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '{' || c == '\'') {
      flush();
      const char close = c == '{' ? '}' : '\'';
      const auto end = s.find(close, i + 1);
      if (end == std::string::npos)
        fail(line, std::string("unterminated '") + c + "' expression");
      tokens.push_back(s.substr(i + 1, end - i - 1));
      if (tokens.back().empty()) fail(line, "empty expression");
      i = end;
    } else if (c == '"') {
      flush();
      const auto end = s.find('"', i + 1);
      if (end == std::string::npos) fail(line, "unterminated quoted string");
      tokens.push_back(s.substr(i + 1, end - i - 1));
      i = end;
    } else if (std::isspace(static_cast<unsigned char>(c)) || c == '(' || c == ')' || c == ',') {
      flush();
    } else if (c == '=') {
      flush();
      tokens.emplace_back("=");
    } else {
      cur.push_back(c);
    }
  }
  flush();
  return tokens;
}

Expr parse_expr(const std::string& token, const std::map<std::string, Expr>& scope,
                const Line& line) {
  try {
    Expr e = Expr::parse(token);
    return scope.empty() ? e : e.substitute(scope);
  } catch (const std::invalid_argument& e) {
    fail(line, e.what());
  }
}

/// key=value pairs from tokens[start..]; values become (scope-substituted)
/// expressions, keys are upper-cased.
std::map<std::string, Expr> parse_kv(const std::vector<std::string>& tokens, std::size_t start,
                                     const std::map<std::string, Expr>& scope, const Line& line) {
  std::map<std::string, Expr> kv;
  for (std::size_t i = start; i < tokens.size();) {
    if (i + 1 >= tokens.size() || tokens[i + 1] != "=")
      fail(line, "expected key=value, got '" + tokens[i] + "'");
    if (i + 2 >= tokens.size()) fail(line, "missing value after '" + tokens[i] + "='");
    kv[upper(tokens[i])] = parse_expr(tokens[i + 2], scope, line);
    i += 3;
  }
  return kv;
}

// ---------------------------------------------------------------------------
// Preprocessing: file reading, comment stripping, continuation joining,
// .include/.lib expansion.
// ---------------------------------------------------------------------------

/// Comment-strips and continuation-joins `text` into logical lines.
std::vector<Line> logical_lines(const std::string& text, const std::string& file,
                                const std::vector<std::string>& chain) {
  std::vector<Line> lines;
  std::istringstream stream(text);
  std::string raw;
  int number = 0;
  while (std::getline(stream, raw)) {
    ++number;
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    const auto semi = raw.find(';');
    if (semi != std::string::npos) raw = raw.substr(0, semi);
    const auto first = raw.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    if (raw[first] == '*') continue;
    if (raw[first] == '+') {
      if (lines.empty() || lines.back().file != file)
        throw ParseError(file, number, "continuation line with nothing to continue", chain);
      lines.back().text += " " + raw.substr(first + 1);
      continue;
    }
    lines.push_back(Line{raw, file, number, chain});
  }
  return lines;
}

struct Expander {
  std::vector<Line> out;
  std::set<std::string> active;  ///< canonicalized paths on the include stack

  void expand_file(const std::string& path, const Line* includer, int depth) {
    std::vector<std::string> chain = includer ? includer->chain : std::vector<std::string>{};
    if (includer) chain.push_back(includer->file + ":" + std::to_string(includer->number));
    auto err = [&](const std::string& message) -> ParseError {
      if (includer)
        return ParseError(includer->file, includer->number, message, includer->chain);
      return ParseError(path, 0, message, {});
    };
    if (depth > kMaxIncludeDepth) throw err("include depth exceeds " +
                                            std::to_string(kMaxIncludeDepth));
    std::error_code ec;
    const fs::path canon = fs::weakly_canonical(fs::path(path), ec);
    const std::string key = ec ? path : canon.string();
    if (!active.insert(key).second) throw err("circular .include of '" + path + "'");
    std::ifstream in(path);
    if (!in) throw err("cannot open '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    expand_text(text.str(), path, chain, depth);
    active.erase(key);
  }

  void expand_text(const std::string& text, const std::string& file,
                   const std::vector<std::string>& chain, int depth) {
    for (Line& line : logical_lines(text, file, chain)) {
      // Cheap dispatch on the first word only; full tokenization happens in
      // the elaboration walk.
      std::istringstream in(line.text);
      std::string word;
      in >> word;
      const std::string w = upper(word);
      if (w == ".INCLUDE" || w == ".LIB") {
        const auto tokens = tokenize(line);
        if (tokens.size() < 2) fail(line, w + " needs a path");
        if (w == ".LIB" && tokens.size() > 2)
          out.push_back(Line{"*WARN* " + w + " section '" + tokens[2] + "' ignored", line.file,
                             line.number, line.chain});
        fs::path target(tokens[1]);
        if (target.is_relative()) {
          const fs::path base = fs::path(line.file).parent_path();
          if (!base.empty()) target = base / target;
        }
        expand_file(target.string(), &line, depth + 1);
      } else {
        out.push_back(std::move(line));
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Elaboration walk
// ---------------------------------------------------------------------------

struct SubcktDef {
  std::string name;                       ///< upper-cased
  std::vector<std::string> pins;          ///< lower-cased
  std::map<std::string, Expr> defaults;   ///< parameter defaults (upper keys)
  std::vector<Line> body;
  Line header;
};

MeasureKind measure_kind(const std::string& token, const Line& line) {
  const std::string k = upper(token);
  if (k == "V" || k == "VOLTAGE") return MeasureKind::Voltage;
  if (k == "POWER" || k == "SUPPLYPOWER") return MeasureKind::SupplyPower;
  if (k == "DCGAIN") return MeasureKind::DcGain;
  if (k == "UGF") return MeasureKind::Ugf;
  if (k == "PM" || k == "PHASEMARGIN") return MeasureKind::PhaseMargin;
  if (k == "BW" || k == "BANDWIDTH") return MeasureKind::Bandwidth;
  if (k == "GM" || k == "GAINMARGIN") return MeasureKind::GainMargin;
  if (k == "MAG" || k == "MAGAT") return MeasureKind::MagnitudeAt;
  if (k == "SETTLE" || k == "SETTLING") return MeasureKind::Settling;
  if (k == "SLEW" || k == "SLEWRATE") return MeasureKind::SlewRate;
  if (k == "OVERSHOOT") return MeasureKind::Overshoot;
  if (k == "RISETIME") return MeasureKind::RiseTime;
  if (k == "RMS" || k == "TOTALRMS" || k == "RMSNOISE") return MeasureKind::TotalRms;
  fail(line, "unknown measure kind '" + token + "'");
}

AnalysisKind measure_analysis(MeasureKind kind) {
  switch (kind) {
    case MeasureKind::Voltage:
    case MeasureKind::SupplyPower: return AnalysisKind::Op;
    case MeasureKind::DcGain:
    case MeasureKind::Ugf:
    case MeasureKind::PhaseMargin:
    case MeasureKind::Bandwidth:
    case MeasureKind::GainMargin:
    case MeasureKind::MagnitudeAt: return AnalysisKind::Ac;
    case MeasureKind::Settling:
    case MeasureKind::SlewRate:
    case MeasureKind::Overshoot:
    case MeasureKind::RiseTime: return AnalysisKind::Tran;
    case MeasureKind::TotalRms: return AnalysisKind::Noise;
  }
  return AnalysisKind::Op;
}

AnalysisKind analysis_kind(const std::string& token, const Line& line) {
  const std::string k = upper(token);
  if (k == "OP") return AnalysisKind::Op;
  if (k == "DC") return AnalysisKind::Dc;
  if (k == "AC") return AnalysisKind::Ac;
  if (k == "TRAN") return AnalysisKind::Tran;
  if (k == "NOISE") return AnalysisKind::Noise;
  fail(line, "unknown analysis '" + token + "'");
}

class Elaborator {
 public:
  ElaboratedDeck run(std::vector<Line> lines) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const Line& line = lines[i];
      // Synthetic warning lines injected by the expander (.lib sections).
      if (line.text.rfind("*WARN* ", 0) == 0) {
        warn(line, line.text.substr(7));
        continue;
      }
      const auto tokens = tokenize(line);
      if (tokens.empty()) continue;
      const std::string head = upper(tokens[0]);

      if (in_subckt_) {
        if (head == ".ENDS") {
          in_subckt_ = false;
          subckts_[current_.name] = current_;
          continue;
        }
        if (head == ".SUBCKT") fail(line, "nested .subckt definitions are not supported");
        if (head == ".END") fail(line, ".end inside a .subckt body (missing .ends?)");
        current_.body.push_back(line);
        continue;
      }

      if (head == ".END") break;
      if (head == ".SUBCKT") {
        begin_subckt(tokens, line);
      } else if (head == ".ENDS") {
        fail(line, ".ends without a matching .subckt");
      } else if (head == ".PARAM") {
        for (const auto& [name, expr] : parse_kv(tokens, 1, {}, line))
          deck_.params.emplace_back(name, expr);
      } else if (head == ".MODEL") {
        parse_model(tokens, line);
      } else if (head == ".OP" || head == ".DC" || head == ".AC" || head == ".TRAN" ||
                 head == ".NOISE") {
        parse_analysis(head, tokens, line);
      } else if (head == ".MEASURE" || head == ".MEAS") {
        parse_measure(tokens, line);
      } else if (head[0] == '.') {
        warn(line, "ignoring unsupported card '" + tokens[0] + "'");
      } else if (head[0] == 'X') {
        instantiate(tokens, line, "", {}, {}, 0);
      } else {
        reserve_element(line);
        deck_.elements.push_back(parse_element(tokens, line, "", {}, {}));
      }
    }
    if (in_subckt_) fail(current_.header, ".subckt '" + current_.name + "' is never closed");
    return std::move(deck_);
  }

 private:
  void warn(const Line& line, const std::string& message) {
    deck_.warnings.push_back(line.file + ":" + std::to_string(line.number) + ": " + message);
  }

  static std::string location(const Line& line) {
    return line.file + ":" + std::to_string(line.number);
  }

  void begin_subckt(const std::vector<std::string>& tokens, const Line& line) {
    if (tokens.size() < 3) fail(line, ".subckt needs a name and at least one pin");
    current_ = SubcktDef{};
    current_.name = upper(tokens[1]);
    current_.header = line;
    std::size_t i = 2;
    while (i < tokens.size() && !(i + 1 < tokens.size() && tokens[i + 1] == "="))
      current_.pins.push_back(lower(tokens[i++]));
    current_.defaults = parse_kv(tokens, i, {}, line);
    if (current_.pins.empty()) fail(line, ".subckt needs at least one pin");
    in_subckt_ = true;
  }

  void parse_model(const std::vector<std::string>& tokens, const Line& line) {
    if (tokens.size() < 3) fail(line, ".model needs a name and a type");
    ModelCard card;
    card.name = upper(tokens[1]);
    card.type = upper(tokens[2]);
    if (card.type != "NMOS" && card.type != "PMOS")
      fail(line, "unknown model type '" + tokens[2] + "'");
    card.params = parse_kv(tokens, 3, {}, line);
    card.location = location(line);
    deck_.models.push_back(std::move(card));
  }

  void parse_analysis(const std::string& head, const std::vector<std::string>& tokens,
                      const Line& line) {
    AnalysisCard card;
    card.location = location(line);
    auto expr = [&](std::size_t i) { return parse_expr(tokens[i], {}, line); };
    auto dec_sweep = [&](std::size_t i) {
      // "DEC n f_start f_stop"
      if (i + 3 >= tokens.size() || upper(tokens[i]) != "DEC")
        fail(line, head + " expects 'dec N f_start f_stop'");
      // Range-checked as a double: the cast of an out-of-range value is undefined.
      const double points_per_decade = expr(i + 1).eval({});
      if (!(points_per_decade >= 1.0 && points_per_decade <= 1e6))
        fail(line, "points per decade must be in [1, 1e6]");
      card.points_per_decade = static_cast<int>(points_per_decade);
      card.f_start = expr(i + 2);
      card.f_stop = expr(i + 3);
      return i + 4;
    };
    if (head == ".OP") {
      card.kind = AnalysisKind::Op;
    } else if (head == ".AC") {
      card.kind = AnalysisKind::Ac;
      dec_sweep(1);
    } else if (head == ".TRAN") {
      card.kind = AnalysisKind::Tran;
      if (tokens.size() < 3) fail(line, ".tran expects 'dt t_stop'");
      card.dt = expr(1);
      card.t_stop = expr(2);
    } else if (head == ".NOISE") {
      card.kind = AnalysisKind::Noise;
      // ".noise v(out[, ref]) dec N f_start f_stop"
      if (tokens.size() < 3 || upper(tokens[1]) != "V")
        fail(line, ".noise expects 'v(node[,ref]) dec N f_start f_stop'");
      card.noise_pos = lower(tokens[2]);
      std::size_t i = 3;
      if (i < tokens.size() && upper(tokens[i]) != "DEC") card.noise_neg = lower(tokens[i++]);
      dec_sweep(i);
    } else {  // .DC
      card.kind = AnalysisKind::Dc;
      if (tokens.size() < 5) fail(line, ".dc expects 'source start stop step'");
      card.dc_source = upper(tokens[1]);
      card.dc_start = expr(2);
      card.dc_stop = expr(3);
      card.dc_step = expr(4);
      warn(line, ".dc is parsed but no measure kind reads it yet");
    }
    deck_.analyses.push_back(std::move(card));
  }

  void parse_measure(const std::vector<std::string>& tokens, const Line& line) {
    // ".measure ANALYSIS NAME KIND [v(node) | element] [k=v ...]"
    if (tokens.size() < 4) fail(line, ".measure expects 'analysis name kind ...'");
    MeasureCard card;
    card.location = location(line);
    const AnalysisKind stated = analysis_kind(tokens[1], line);
    card.name = upper(tokens[2]);
    card.kind = measure_kind(tokens[3], line);
    card.analysis = measure_analysis(card.kind);
    if (stated != card.analysis)
      fail(line, "measure kind '" + tokens[3] + "' belongs to the " +
                     std::string(to_string(card.analysis)) + " analysis, not " +
                     std::string(to_string(stated)));
    std::size_t i = 4;
    if (card.kind == MeasureKind::SupplyPower) {
      if (i >= tokens.size()) fail(line, "supplypower needs a V-source element name");
      card.element = upper(tokens[i++]);
    } else if (card.kind != MeasureKind::TotalRms) {
      // All other kinds probe a node: "v(node)" tokenizes to "v" "node".
      if (i + 1 >= tokens.size() || upper(tokens[i]) != "V")
        fail(line, "measure kind '" + tokens[3] + "' needs a probe 'v(node)'");
      card.node = lower(tokens[i + 1]);
      i += 2;
    }
    card.kv = parse_kv(tokens, i, {}, line);
    for (const auto& m : deck_.measures)
      if (m.name == card.name) fail(line, "duplicate measure name '" + card.name + "'");
    deck_.measures.push_back(std::move(card));
  }

  /// Maps a node reference into the current instance context.
  static std::string map_node(const std::string& raw, const std::string& prefix,
                              const std::map<std::string, std::string>& node_map) {
    const std::string n = lower(raw);
    if (n == "0" || n == "gnd") return "0";
    const auto it = node_map.find(n);
    if (it != node_map.end()) return it->second;
    return prefix.empty() ? n : lower(prefix) + "." + n;
  }

  ElementCard parse_element(const std::vector<std::string>& tokens, const Line& line,
                            const std::string& prefix,
                            const std::map<std::string, std::string>& node_map,
                            const std::map<std::string, Expr>& scope) {
    ElementCard card;
    card.name = prefix.empty() ? upper(tokens[0]) : upper(prefix) + "." + upper(tokens[0]);
    card.location = location(line);
    auto node = [&](std::size_t i) { return map_node(tokens[i], prefix, node_map); };
    auto expr = [&](std::size_t i) { return parse_expr(tokens[i], scope, line); };
    switch (upper(tokens[0])[0]) {
      case 'R':
      case 'C':
      case 'L': {
        const char k = upper(tokens[0])[0];
        card.kind = k == 'R'   ? ElementKind::Resistor
                    : k == 'C' ? ElementKind::Capacitor
                               : ElementKind::Inductor;
        if (tokens.size() != 4)
          fail(line, std::string(1, k) + ": expected name n1 n2 value");
        card.nodes = {node(1), node(2)};
        card.value = expr(3);
        break;
      }
      case 'V':
      case 'I': {
        card.kind = upper(tokens[0])[0] == 'V' ? ElementKind::VSource : ElementKind::ISource;
        if (tokens.size() < 3) fail(line, "source needs two nodes");
        card.nodes = {node(1), node(2)};
        card.source = parse_source(tokens, 3, line, scope);
        break;
      }
      case 'E': {
        card.kind = ElementKind::Vcvs;
        if (tokens.size() != 6) fail(line, "E: expected name p n cp cn gain");
        card.nodes = {node(1), node(2), node(3), node(4)};
        card.value = expr(5);
        break;
      }
      case 'M': {
        card.kind = ElementKind::Mosfet;
        if (tokens.size() < 6) fail(line, "M: expected name d g s b model [kv...]");
        card.nodes = {node(1), node(2), node(3), node(4)};
        card.model = upper(tokens[5]);
        card.w = Expr::number(1e-6);
        card.l = Expr::number(1e-6);
        card.m = Expr::number(1.0);
        for (const auto& [key, value] : parse_kv(tokens, 6, scope, line)) {
          if (key == "W")
            card.w = value;
          else if (key == "L")
            card.l = value;
          else if (key == "M")
            card.m = value;
          else
            fail(line, "unknown MOSFET parameter '" + key + "'");
        }
        break;
      }
      default:
        fail(line, "unknown element '" + tokens[0] + "'");
    }
    return card;
  }

  SourceSpec parse_source(const std::vector<std::string>& tokens, std::size_t i, const Line& line,
                          const std::map<std::string, Expr>& scope) {
    SourceSpec out;
    out.dc = Expr::number(0.0);
    auto expr = [&](std::size_t k) { return parse_expr(tokens[k], scope, line); };
    auto is_keyword = [&](std::size_t k) {
      const std::string u = upper(tokens[k]);
      return u == "DC" || u == "AC" || u == "PULSE" || u == "PWL";
    };
    if (i < tokens.size() && !is_keyword(i)) {
      out.dc = expr(i);  // bare value shorthand: "V1 a 0 1.8"
      ++i;
    }
    while (i < tokens.size()) {
      const std::string kw = upper(tokens[i]);
      if (kw == "DC") {
        if (i + 1 >= tokens.size()) fail(line, "DC needs a value");
        out.wave = SourceSpec::Wave::Dc;
        out.dc = expr(i + 1);
        i += 2;
      } else if (kw == "AC") {
        if (i + 1 >= tokens.size()) fail(line, "AC needs a magnitude");
        out.ac = expr(i + 1);
        i += 2;
      } else if (kw == "PULSE") {
        if (i + 7 >= tokens.size()) fail(line, "PULSE needs 7 arguments");
        out.wave = SourceSpec::Wave::Pulse;
        out.args.clear();
        for (std::size_t k = 1; k <= 7; ++k) out.args.push_back(expr(i + k));
        i += 8;
      } else if (kw == "PWL") {
        out.wave = SourceSpec::Wave::Pwl;
        out.args.clear();
        ++i;
        while (i < tokens.size() && !is_keyword(i)) out.args.push_back(expr(i++));
        if (out.args.empty() || out.args.size() % 2 != 0)
          fail(line, "PWL needs time/value pairs");
      } else {
        fail(line, "unknown source keyword '" + tokens[i] + "'");
      }
    }
    return out;
  }

  /// Flattens one X instance card: maps pins, prefixes internal nodes and
  /// element names, substitutes instance parameters into body expressions.
  void instantiate(const std::vector<std::string>& tokens, const Line& line,
                   const std::string& outer_prefix,
                   const std::map<std::string, std::string>& outer_nodes,
                   const std::map<std::string, Expr>& outer_scope, int depth) {
    if (depth > kMaxSubcktDepth) fail(line, "subcircuit nesting exceeds depth limit (cycle?)");
    // Positional tokens run until the first k=v pair; the last positional is
    // the subckt name, the rest are pin connections.
    std::size_t kv_start = tokens.size();
    for (std::size_t i = 1; i < tokens.size(); ++i)
      if (i + 1 < tokens.size() && tokens[i + 1] == "=") {
        kv_start = i;
        break;
      }
    if (kv_start < 3) fail(line, "X: expected name nodes... subckt [k=v ...]");
    const std::string sub_name = upper(tokens[kv_start - 1]);
    const auto def_it = subckts_.find(sub_name);
    if (def_it == subckts_.end())
      fail(line, "unknown subcircuit '" + tokens[kv_start - 1] +
                     "' (define .subckt before use)");
    const SubcktDef& def = def_it->second;
    const std::size_t num_pins = kv_start - 2;
    if (num_pins != def.pins.size())
      fail(line, "subcircuit '" + sub_name + "' has " + std::to_string(def.pins.size()) +
                     " pins, got " + std::to_string(num_pins));

    const std::string prefix =
        outer_prefix.empty() ? upper(tokens[0]) : outer_prefix + "." + upper(tokens[0]);
    std::map<std::string, std::string> node_map;
    for (std::size_t p = 0; p < num_pins; ++p)
      node_map[def.pins[p]] = map_node(tokens[1 + p], outer_prefix, outer_nodes);

    // Instance scope: defaults (closed over the outer scope) overridden by
    // the X-card's k=v arguments (also outer-scope expressions).
    std::map<std::string, Expr> scope;
    for (const auto& [name, expr] : def.defaults) scope[name] = expr.substitute(outer_scope);
    for (const auto& [name, expr] : parse_kv(tokens, kv_start, outer_scope, line))
      scope[name] = expr;

    for (const Line& body_line : def.body) {
      const auto body_tokens = tokenize(body_line);
      if (body_tokens.empty()) continue;
      const std::string head = upper(body_tokens[0]);
      if (head == ".PARAM") {
        // Subckt-local parameters join the instance scope (in order).
        for (const auto& [name, expr] : parse_kv(body_tokens, 1, scope, body_line))
          scope[name] = expr;
      } else if (head[0] == '.') {
        fail(body_line, "card '" + body_tokens[0] + "' is not allowed inside .subckt");
      } else if (head[0] == 'X') {
        instantiate(body_tokens, body_line, prefix, node_map, scope, depth + 1);
      } else {
        reserve_element(line);
        deck_.elements.push_back(parse_element(body_tokens, body_line, prefix, node_map, scope));
      }
    }
  }

  /// Rejects the element that would cross kMaxElements, at `at`: the
  /// element's own card at top level, the instance card being flattened
  /// inside a subcircuit.
  void reserve_element(const Line& at) const {
    if (deck_.elements.size() >= kMaxElements)
      fail(at, "deck flattens to more than " + std::to_string(kMaxElements) + " elements");
  }

  ElaboratedDeck deck_;
  std::map<std::string, SubcktDef> subckts_;
  SubcktDef current_;
  bool in_subckt_ = false;
};

void fold_string(std::uint64_t& h, const std::string& s) {
  h = hash_u64(s.size(), h);
  h = hash_bytes(s.data(), s.size(), h);
}

void fold_expr(std::uint64_t& h, const Expr& e) {
  fold_string(h, e.empty() ? std::string("<none>") : e.canonical());
}

}  // namespace

const char* to_string(AnalysisKind kind) {
  switch (kind) {
    case AnalysisKind::Op: return "op";
    case AnalysisKind::Dc: return "dc";
    case AnalysisKind::Ac: return "ac";
    case AnalysisKind::Tran: return "tran";
    case AnalysisKind::Noise: return "noise";
  }
  return "?";
}

const AnalysisCard* ElaboratedDeck::analysis(AnalysisKind kind) const {
  for (const auto& card : analyses)
    if (card.kind == kind) return &card;
  return nullptr;
}

ParamEnv ElaboratedDeck::nominal_env() const {
  ParamEnv env;
  for (const auto& [name, expr] : params) {
    try {
      env[name] = expr.eval(env);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(".param " + name + ": " + e.what());
    }
  }
  return env;
}

std::uint64_t ElaboratedDeck::content_hash() const {
  std::uint64_t h = hash_u64(0xDECC0DEULL, kHashSeed);
  h = hash_u64(elements.size(), h);
  for (const auto& e : elements) {
    h = hash_u64(static_cast<std::uint64_t>(e.kind), h);
    fold_string(h, e.name);
    h = hash_u64(e.nodes.size(), h);
    for (const auto& n : e.nodes) fold_string(h, n);
    fold_expr(h, e.value);
    fold_string(h, e.model);
    fold_expr(h, e.w);
    fold_expr(h, e.l);
    fold_expr(h, e.m);
    h = hash_u64(static_cast<std::uint64_t>(e.source.wave), h);
    fold_expr(h, e.source.dc);
    fold_expr(h, e.source.ac);
    h = hash_u64(e.source.args.size(), h);
    for (const auto& a : e.source.args) fold_expr(h, a);
  }
  h = hash_u64(models.size(), h);
  for (const auto& m : models) {
    fold_string(h, m.name);
    fold_string(h, m.type);
    h = hash_u64(m.params.size(), h);
    for (const auto& [key, value] : m.params) {
      fold_string(h, key);
      fold_expr(h, value);
    }
  }
  h = hash_u64(params.size(), h);
  for (const auto& [name, expr] : params) {
    fold_string(h, name);
    fold_expr(h, expr);
  }
  h = hash_u64(analyses.size(), h);
  for (const auto& a : analyses) {
    h = hash_u64(static_cast<std::uint64_t>(a.kind), h);
    h = hash_u64(static_cast<std::uint64_t>(a.points_per_decade), h);
    fold_expr(h, a.f_start);
    fold_expr(h, a.f_stop);
    fold_expr(h, a.dt);
    fold_expr(h, a.t_stop);
    fold_string(h, a.noise_pos);
    fold_string(h, a.noise_neg);
    fold_string(h, a.dc_source);
    fold_expr(h, a.dc_start);
    fold_expr(h, a.dc_stop);
    fold_expr(h, a.dc_step);
  }
  h = hash_u64(measures.size(), h);
  for (const auto& m : measures) {
    fold_string(h, m.name);
    h = hash_u64(static_cast<std::uint64_t>(m.analysis), h);
    h = hash_u64(static_cast<std::uint64_t>(m.kind), h);
    fold_string(h, m.node);
    fold_string(h, m.element);
    h = hash_u64(m.kv.size(), h);
    for (const auto& [key, value] : m.kv) {
      fold_string(h, key);
      fold_expr(h, value);
    }
  }
  return h;
}

ElaboratedDeck elaborate_deck_file(const std::string& path) {
  Expander expander;
  expander.expand_file(path, nullptr, 0);
  ElaboratedDeck deck = Elaborator().run(std::move(expander.out));
  deck.top_path = path;
  return deck;
}

ElaboratedDeck elaborate_deck_text(const std::string& text, const std::string& virtual_path) {
  Expander expander;
  expander.expand_text(text, virtual_path, {}, 0);
  ElaboratedDeck deck = Elaborator().run(std::move(expander.out));
  deck.top_path = virtual_path;
  return deck;
}

}  // namespace maopt::deck
