#include "harness/scenario_dsl.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "harness/primitives.hpp"
#include "harness/protocol.hpp"

namespace rr::harness {
namespace {

// -------------------------------------------------------------------------
// Low-level token parsing. Every helper returns false (without touching the
// output) on malformed input; the caller owns the error message.
// -------------------------------------------------------------------------

/// Unsigned values start with a digit: strtoull would accept a sign or
/// leading blanks and wrap "-3" to 2^64 - 3.
bool starts_with_digit(const std::string& v) {
  return !v.empty() && std::isdigit(static_cast<unsigned char>(v[0])) != 0;
}

bool parse_u64(const std::string& v, std::uint64_t* out) {
  if (!starts_with_digit(v)) return false;
  char* end = nullptr;
  const std::uint64_t x = std::strtoull(v.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = x;
  return true;
}

bool parse_int(const std::string& v, int* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  const long x = std::strtol(v.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = static_cast<int>(x);
  return true;
}

/// Times: integer with an optional ns/us/ms/s suffix; bare means ns (the
/// backend clock unit).
bool parse_time(const std::string& v, Time* out) {
  if (!starts_with_digit(v)) return false;
  char* end = nullptr;
  const std::uint64_t x = std::strtoull(v.c_str(), &end, 10);
  if (end == nullptr || end == v.c_str()) return false;
  const std::string suffix(end);
  std::uint64_t scale = 1;
  if (suffix == "" || suffix == "ns") scale = 1;
  else if (suffix == "us") scale = 1'000;
  else if (suffix == "ms") scale = 1'000'000;
  else if (suffix == "s") scale = 1'000'000'000;
  else return false;
  *out = x * scale;
  return true;
}

/// Signed time offsets (clock skew): optional leading '-', same suffixes.
bool parse_offset(const std::string& v, std::int64_t* out) {
  std::string body = v;
  bool neg = false;
  if (!body.empty() && (body[0] == '-' || body[0] == '+')) {
    neg = body[0] == '-';
    body.erase(0, 1);
  }
  Time t = 0;
  if (!parse_time(body, &t)) return false;
  const auto mag = static_cast<std::int64_t>(t);
  *out = neg ? -mag : mag;
  return true;
}

/// Wall-clock deadlines: integer milliseconds, optional ms/s suffix.
bool parse_wall_ms(const std::string& v, std::uint64_t* out) {
  if (!starts_with_digit(v)) return false;
  char* end = nullptr;
  const std::uint64_t x = std::strtoull(v.c_str(), &end, 10);
  if (end == nullptr || end == v.c_str()) return false;
  const std::string suffix(end);
  if (suffix == "" || suffix == "ms") *out = x;
  else if (suffix == "s") *out = x * 1'000;
  else return false;
  return true;
}

/// Rates and factors: a double, with an optional trailing 'x' ("8x").
bool parse_rate(const std::string& v, double* out) {
  if (v.empty()) return false;
  std::string body = v;
  if (body.back() == 'x') body.pop_back();
  if (body.empty()) return false;
  char* end = nullptr;
  const double x = std::strtod(body.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = x;
  return true;
}

/// Comma-separated object indices; the word "all" means the empty list
/// (= every channel, for link-fault scopes).
bool parse_objs(const std::string& v, std::vector<int>* out) {
  out->clear();
  if (v == "all") return true;
  std::size_t start = 0;
  while (start <= v.size()) {
    const auto comma = v.find(',', start);
    int x = 0;
    if (!parse_int(v.substr(start, comma - start), &x)) return false;
    out->push_back(x);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return !out->empty();
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

/// The key=value pairs of a directive line (tokens after the first `skip`).
struct KvArgs {
  std::vector<std::pair<std::string, std::string>> pairs;
  std::string bad;  ///< first token that was not key=value; empty when none

  explicit KvArgs(const std::vector<std::string>& tokens, std::size_t skip) {
    for (std::size_t i = skip; i < tokens.size(); ++i) {
      const auto eq = tokens[i].find('=');
      if (eq == std::string::npos || eq == 0) {
        if (bad.empty()) bad = tokens[i];
        continue;
      }
      pairs.emplace_back(tokens[i].substr(0, eq), tokens[i].substr(eq + 1));
    }
  }

  [[nodiscard]] const std::string* find(const std::string& key) const {
    for (const auto& [k, v] : pairs) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// First key not in `allowed`; empty when all keys are known.
  [[nodiscard]] std::string unknown_key(
      std::initializer_list<const char*> allowed) const {
    for (const auto& [k, v] : pairs) {
      bool known = false;
      for (const char* a : allowed) known = known || k == a;
      if (!known) return k;
    }
    return "";
  }
};

std::string fmt_double(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  // Trim to the shortest representation that still round-trips exactly.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[40];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, x);
    if (std::strtod(probe, nullptr) == x) return probe;
  }
  return buf;
}

const char* semantics_name(Semantics s) {
  switch (s) {
    case Semantics::Safe: return "safe";
    case Semantics::Regular: return "regular";
    case Semantics::Atomic: return "atomic";
  }
  return "?";
}

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' &&
        c != '_' && c != '.') {
      return false;
    }
  }
  return true;
}

std::string parse_obj(const std::string& v, int* out) {
  return parse_int(v, out) && *out >= 0 ? "" : "bad obj";
}

/// obj=N, or role=writer | role=reader [idx=J]: the client processes read
/// clocks too, so the per-process kinds can address them (role=reader
/// defaults to reader 0).
std::string parse_target(const KvArgs& kv, FaultEvent* ev) {
  const auto* obj = kv.find("obj");
  const auto* role = kv.find("role");
  const auto* idx = kv.find("idx");
  if (obj != nullptr && role != nullptr) return "both obj= and role= given";
  if (role == nullptr) {
    if (idx != nullptr) return "idx= needs role=reader";
    return obj == nullptr ? "missing obj=" : parse_obj(*obj, &ev->object);
  }
  if (*role == "writer") {
    ev->role = Role::Writer;
    return idx == nullptr ? "" : "role=writer takes no idx=";
  }
  if (*role != "reader") {
    return "unknown role '" + *role + "' (want writer|reader)";
  }
  ev->role = Role::Reader;
  if (idx != nullptr && (!parse_int(*idx, &ev->object) || ev->object < 0)) {
    return "bad idx";
  }
  return "";
}

/// Reads key `k` of a fault line into `ev`. Returns an error or "".
std::string parse_key(const PrimitiveKey& k, const KvArgs& kv,
                      FaultEvent* ev) {
  const std::string name = k.name;
  const std::string* v = kv.find(name);
  const auto bad = [&name](const std::string& text) {
    return "bad " + name + " '" + text + "'";
  };
  double value = 0;  // what the range check sees
  if (const auto field = time_field(k.type)) {
    // The window keys' synonyms: from= for at=, to= (meaning to - at) for
    // dur=.
    const char* alias = k.type == KeyType::Start    ? "from"
                        : k.type == KeyType::Length ? "to"
                                                    : "";
    const auto* alt = kv.find(alias);
    if (v != nullptr && alt != nullptr) {
      return "both " + name + "= and " + alias + "= given";
    }
    if (v != nullptr && !parse_time(*v, &(ev->*field))) return bad(*v);
    if (alt != nullptr) {
      Time t = 0;
      if (!parse_time(*alt, &t)) return bad(*alt);
      if (k.type == KeyType::Length && t < ev->at) {
        return "to= before the window start";
      }
      ev->*field = k.type == KeyType::Length ? t - ev->at : t;
      v = alt;
    }
    value = static_cast<double>(ev->*field);
  }
  switch (k.type) {
    case KeyType::Target:
      return parse_target(kv, ev);
    case KeyType::Object:
      if (v != nullptr) {
        if (auto err = parse_obj(*v, &ev->object); !err.empty()) return err;
      }
      break;
    case KeyType::Objects:
      if (v != nullptr && !parse_objs(*v, &ev->held)) return bad(*v);
      break;
    case KeyType::Strategy:
      if (v != nullptr) {
        const auto strategy = adversary::strategy_from_name(*v);
        if (!strategy) return "unknown strategy '" + *v + "'";
        ev->strategy = *strategy;
      }
      break;
    case KeyType::Tag:
      if (v != nullptr && *v != k.tag) {
        return "bad " + name + " '" + *v + "' (want " + k.want + ")";
      }
      break;
    case KeyType::Rate:
      if (v != nullptr && !parse_rate(*v, &ev->rate)) return bad(*v);
      value = ev->rate;
      break;
    case KeyType::Offset:
      if (v != nullptr && !parse_offset(*v, &ev->skew)) return bad(*v);
      break;
    default:
      break;  // a time, read above
  }
  if (v == nullptr) {
    if (!k.required) return "";
    return k.want == nullptr ? "missing " + name + "="
                             : "missing " + name + "= (want " + k.want + ")";
  }
  if (k.valid != nullptr && !k.valid(value)) {
    return "bad " + name + " (want " + k.want + ")";
  }
  return "";
}

/// One `fault <word> key=value...` line through its primitive's table row.
/// Returns an error or "".
std::string parse_fault(const std::string& word, const KvArgs& kv,
                        BackendKind backend, FaultEvent* ev) {
  // Twin rows share a word; their Tag keys pick one. A line whose tag
  // matches no twin goes to the first, whose Tag key reports it.
  const Primitive* row = nullptr;
  for (const auto& p : primitives()) {
    if (word != p.word) continue;
    const bool tags_match = std::all_of(
        p.keys.begin(), p.keys.end(), [&kv](const PrimitiveKey& k) {
          const auto* v = kv.find(k.name);
          return k.type != KeyType::Tag || (v != nullptr && *v == k.tag);
        });
    if (row == nullptr || tags_match) row = &p;
    if (tags_match) break;
  }
  if (row == nullptr) return "unknown fault kind '" + word + "'";
  if (!supports(*row, backend)) {
    return "fault " + word + " runs only on the des backend";
  }
  for (const auto& [key, value] : kv.pairs) {
    const bool known = std::any_of(
        row->keys.begin(), row->keys.end(), [&key](const PrimitiveKey& k) {
          return key == k.name ||
                 (k.type == KeyType::Start && key == "from") ||
                 (k.type == KeyType::Length && key == "to") ||
                 (k.type == KeyType::Target && (key == "role" || key == "idx"));
        });
    if (!known) return "unknown key '" + key + "'";
  }
  ev->kind = row->kind;
  for (const auto& k : row->keys) {
    if (auto err = parse_key(k, kv, ev); !err.empty()) return err;
  }
  *ev = with_defaults(*ev);
  return "";
}

}  // namespace

ScenarioParseResult parse_scenario(std::string_view text) {
  ScenarioParseResult result;
  Scenario& s = result.scenario;
  int scenario_line = 0;
  bool saw_runseed = false;
  // Source line of each fault event, so the deferred semantic validation
  // (deferred because `budget` may legally come after `fault` lines) can
  // still name the offending line instead of the end of the file.
  std::vector<int> event_lines;

  const auto fail = [&result](int line, const std::string& msg) {
    result.ok = false;
    result.error = "line " + std::to_string(line) + ": " + msg;
    return result;
  };

  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto nl = text.find('\n', pos);
    std::string line(text.substr(pos, nl - pos));
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];

    if (directive == "scenario") {
      if (scenario_line != 0) return fail(line_no, "duplicate scenario line");
      if (tokens.size() < 3) {
        return fail(line_no, "want: scenario <protocol> <backend> [name=NAME]");
      }
      const auto protocol = protocol_from_name(tokens[1]);
      if (!protocol) return fail(line_no, "unknown protocol '" + tokens[1] +
                                              "'");
      const auto backend = backend_from_name(tokens[2]);
      if (!backend) return fail(line_no, "unknown backend '" + tokens[2] +
                                             "' (" + backend_names() + ")");
      s.protocol = *protocol;
      s.backend = *backend;
      const KvArgs kv(tokens, 3);
      if (!kv.bad.empty()) return fail(line_no, "stray token '" + kv.bad +
                                                    "'");
      if (const auto k = kv.unknown_key({"name"}); !k.empty()) {
        return fail(line_no, "unknown key '" + k + "'");
      }
      if (const auto* v = kv.find("name")) {
        if (!valid_name(*v)) {
          return fail(line_no, "bad name (want [A-Za-z0-9._-]+)");
        }
        s.name = *v;
      }
      scenario_line = line_no;
      continue;
    }
    if (scenario_line == 0) {
      return fail(line_no, "the scenario line must come first");
    }

    if (directive == "budget") {
      const KvArgs kv(tokens, 1);
      if (const auto k = kv.unknown_key({"t", "b", "readers"}); !k.empty()) {
        return fail(line_no, "unknown key '" + k + "'");
      }
      if (const auto* v = kv.find("t")) {
        if (!parse_int(*v, &s.t) || s.t < 0) return fail(line_no, "bad t");
      }
      if (const auto* v = kv.find("b")) {
        if (!parse_int(*v, &s.b) || s.b < 0) return fail(line_no, "bad b");
      }
      if (const auto* v = kv.find("readers")) {
        if (!parse_int(*v, &s.readers) || s.readers < 1) {
          return fail(line_no, "bad readers");
        }
      }
    } else if (directive == "workload") {
      const KvArgs kv(tokens, 1);
      if (const auto k = kv.unknown_key({"writes", "reads", "write_gap",
                                         "read_gap", "shards", "arrival",
                                         "clients", "think", "horizon",
                                         "write_frac", "window"});
          !k.empty()) {
        return fail(line_no, "unknown key '" + k + "'");
      }
      if (const auto* v = kv.find("writes")) {
        if (!parse_int(*v, &s.writes) || s.writes < 0) {
          return fail(line_no, "bad writes");
        }
      }
      if (const auto* v = kv.find("reads")) {
        if (!parse_int(*v, &s.reads_per_reader) || s.reads_per_reader < 0) {
          return fail(line_no, "bad reads");
        }
      }
      if (const auto* v = kv.find("write_gap")) {
        if (!parse_time(*v, &s.write_gap)) {
          return fail(line_no, "bad write_gap");
        }
      }
      if (const auto* v = kv.find("read_gap")) {
        if (!parse_time(*v, &s.read_gap)) return fail(line_no, "bad read_gap");
      }
      if (const auto* v = kv.find("shards")) {
        if (!parse_int(*v, &s.shards) || s.shards < 1) {
          return fail(line_no, "bad shards");
        }
      }
      // Open-loop keys (docs/WORKLOADS.md). `arrival=` selects the process;
      // the population/horizon keys are only legal once it is open, so an
      // emitted scenario (which drops them at their defaults) re-parses to
      // the same Scenario value.
      if (const auto* v = kv.find("arrival")) {
        const auto a = arrival_from_name(*v);
        if (!a) {
          return fail(line_no, "unknown arrival '" + *v +
                                   "' (closed|poisson|bursty|diurnal)");
        }
        s.arrival = *a;
      }
      if (const auto* v = kv.find("clients")) {
        if (!parse_u64(*v, &s.clients) || s.clients == 0) {
          return fail(line_no, "bad clients (want >= 1)");
        }
      }
      if (const auto* v = kv.find("think")) {
        if (!parse_time(*v, &s.think) || s.think == 0) {
          return fail(line_no, "bad think (want a time >= 1)");
        }
      }
      if (const auto* v = kv.find("horizon")) {
        if (!parse_time(*v, &s.horizon) || s.horizon == 0) {
          return fail(line_no, "bad horizon (want a time >= 1)");
        }
      }
      if (const auto* v = kv.find("write_frac")) {
        if (!parse_rate(*v, &s.write_fraction) || s.write_fraction < 0 ||
            s.write_fraction > 1) {
          return fail(line_no, "bad write_frac (want a fraction in [0, 1])");
        }
      }
      if (s.arrival == ArrivalKind::Closed) {
        for (const char* key : {"clients", "think", "horizon", "write_frac"}) {
          if (kv.find(key) != nullptr) {
            return fail(line_no, std::string(key) +
                                     "= needs an open arrival process "
                                     "(arrival=poisson|bursty|diurnal)");
          }
        }
      }
      if (const auto* v = kv.find("window")) {
        std::uint64_t window = 0;
        if (!parse_u64(*v, &window)) {
          return fail(line_no, "bad window (want 0 = batch, or >= 1)");
        }
        s.checker_window = static_cast<std::size_t>(window);
      }
    } else if (directive == "check") {
      if (tokens.size() != 2) {
        return fail(line_no, "want: check safe|regular|atomic");
      }
      if (tokens[1] == "safe") s.check_override = Semantics::Safe;
      else if (tokens[1] == "regular") s.check_override = Semantics::Regular;
      else if (tokens[1] == "atomic") s.check_override = Semantics::Atomic;
      else return fail(line_no, "unknown semantics '" + tokens[1] + "'");
    } else if (directive == "expect") {
      if (tokens.size() != 2 || (tokens[1] != "ok" && tokens[1] != "fail")) {
        return fail(line_no, "want: expect ok|fail");
      }
      s.expect_ok = tokens[1] == "ok";
    } else if (directive == "deadline") {
      if (tokens.size() != 2 || !parse_wall_ms(tokens[1], &s.max_wall_ms)) {
        return fail(line_no, "want: deadline <milliseconds>[ms|s]");
      }
    } else if (directive == "runseed") {
      if (tokens.size() != 2 || !parse_u64(tokens[1], &s.run_seed)) {
        return fail(line_no, "want: runseed <u64>");
      }
      saw_runseed = true;
    } else if (directive == "history") {
      const KvArgs kv(tokens, 1);
      if (!kv.bad.empty()) return fail(line_no, "stray token '" + kv.bad +
                                                    "'");
      if (const auto k = kv.unknown_key({"limit", "gc"}); !k.empty()) {
        return fail(line_no, "unknown key '" + k + "'");
      }
      if (const auto* v = kv.find("limit")) {
        std::uint64_t limit = 0;
        if (!parse_u64(*v, &limit) || limit == 1) {
          return fail(line_no, "bad limit (want 0 = unlimited, or >= 2)");
        }
        s.history_limit = static_cast<std::size_t>(limit);
      }
      if (const auto* v = kv.find("gc")) {
        if (*v == "on") s.history_gc = true;
        else if (*v == "off") s.history_gc = false;
        else return fail(line_no, "bad gc (want on|off)");
      }
    } else if (directive == "fault") {
      if (tokens.size() < 2) return fail(line_no, "want: fault <kind> ...");
      const KvArgs kv(tokens, 2);
      if (!kv.bad.empty()) {
        return fail(line_no, "stray token '" + kv.bad + "'");
      }
      FaultEvent ev;
      if (const auto err = parse_fault(tokens[1], kv, s.backend, &ev);
          !err.empty()) {
        return fail(line_no, err);
      }
      s.events.push_back(std::move(ev));
      event_lines.push_back(line_no);
    } else {
      return fail(line_no, "unknown directive '" + directive + "'");
    }
  }

  if (scenario_line == 0) return fail(line_no, "missing scenario line");
  if (!saw_runseed) {
    return fail(scenario_line, "missing runseed line (want: runseed <u64>)");
  }

  // Semantic validation against the effective resilience recipe, so a bad
  // file is a parse error that names the offending `fault` line instead of
  // a late assertion failure deep inside the sweep's deployment build.
  const Resilience res =
      protocol_traits(s.protocol).resilience_for(s.t, s.b, s.readers);
  int byz_count = 0;
  std::map<const Primitive*, int> uses;
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    const auto& ev = s.events[i];
    const int ev_line = event_lines[i];
    const Primitive& p = primitive_of(ev);
    if (p.budget == Budget::B && ++byz_count > res.b) {
      return fail(ev_line, std::to_string(byz_count) +
                               " byzantine faults exceed the budget b = " +
                               std::to_string(res.b));
    }
    if (p.once && ++uses[&p] > 1) {
      return fail(ev_line, std::string("at most one ") + p.word +
                               " fault per scenario");
    }
    // The per-process kinds may address a client role instead of an
    // object; reader indices live in their own 0..R-1 range.
    if (ev.role == Role::Reader && ev.object >= res.num_readers) {
      return fail(ev_line, "reader index " + std::to_string(ev.object) +
                               " out of range (this deployment has " +
                               std::to_string(res.num_readers) + " readers)");
    }
    std::vector<int> objs;  // the base objects the event names
    for (const auto& k : p.keys) {
      if (k.type == KeyType::Objects) objs = ev.held;
      if (k.type == KeyType::Object ||
          (k.type == KeyType::Target && ev.role == Role::Object)) {
        objs = {ev.object};
      }
    }
    for (const int o : objs) {
      if (o < 0 || o >= res.num_objects) {
        return fail(ev_line, "object " + std::to_string(o) +
                                 " out of range (this deployment has " +
                                 std::to_string(res.num_objects) +
                                 " objects)");
      }
    }
  }
  result.ok = true;
  return result;
}

namespace {

std::string emit_time(Time x) {
  return std::to_string(static_cast<unsigned long long>(x));
}

std::string emit_objs(const std::vector<int>& v) {
  if (v.empty()) return "all";
  std::string o;
  for (const int x : v) {
    if (!o.empty()) o += ",";
    o += std::to_string(x);
  }
  return o;
}

/// A gray/skew target as it appears in the DSL: `obj=N` for base objects,
/// `role=writer` / `role=reader idx=J` for client processes.
std::string emit_target(const FaultEvent& ev) {
  switch (ev.role) {
    case Role::Writer:
      return "role=writer";
    case Role::Reader:
      return "role=reader idx=" + std::to_string(ev.object);
    case Role::Object:
      break;
  }
  return "obj=" + std::to_string(ev.object);
}

}  // namespace

std::string emit_fault(const FaultEvent& event) {
  const FaultEvent ev = with_defaults(event);
  const Primitive& p = primitive_of(ev);
  std::string line = std::string("fault ") + p.word;
  for (const auto& k : p.keys) {
    std::string v;
    bool unset = false;
    if (const auto field = time_field(k.type)) {
      v = emit_time(ev.*field);
      unset = ev.*field == 0;
    }
    switch (k.type) {
      case KeyType::Target:
        line += " " + emit_target(ev);
        continue;
      case KeyType::Object:
        v = std::to_string(ev.object);
        break;
      case KeyType::Objects:
        v = emit_objs(ev.held);
        unset = ev.held.empty();
        break;
      case KeyType::Strategy:
        v = adversary::to_string(ev.strategy);
        break;
      case KeyType::Tag:
        v = k.tag;
        break;
      case KeyType::Rate:
        v = fmt_double(ev.rate);
        unset = ev.rate == 0;
        break;
      case KeyType::Offset:
        v = std::to_string(static_cast<long long>(ev.skew));
        unset = ev.skew == 0;
        break;
      default:
        break;  // a time, written above
    }
    if (!unset || k.emit_unset) line += " " + std::string(k.name) + "=" + v;
  }
  return line;
}

std::string emit_scenario(const Scenario& s) {
  std::string out;
  const auto line = [&out](const std::string& l) {
    out += l;
    out += '\n';
  };
  const auto t = emit_time;

  std::string head = std::string("scenario ") +
                     protocol_traits(s.protocol).cli_name + " " +
                     to_string(s.backend);
  if (!s.name.empty()) head += " name=" + s.name;
  line(head);
  line("budget t=" + std::to_string(s.t) + " b=" + std::to_string(s.b) +
       " readers=" + std::to_string(s.readers));
  line("workload writes=" + std::to_string(s.writes) +
       " reads=" + std::to_string(s.reads_per_reader) +
       " write_gap=" + t(s.write_gap) + " read_gap=" + t(s.read_gap) +
       " shards=" + std::to_string(s.shards));
  // Open-loop / windowed-checker keys: emitted only when off-default, so
  // closed-loop files stay short.
  if (s.arrival != ArrivalKind::Closed || s.checker_window != 0) {
    std::string l = "workload";
    if (s.arrival != ArrivalKind::Closed) {
      l += std::string(" arrival=") + to_string(s.arrival);
      l += " clients=" + std::to_string(s.clients);
      l += " think=" + t(s.think);
      l += " horizon=" + t(s.horizon);
      l += " write_frac=" + fmt_double(s.write_fraction);
    }
    if (s.checker_window != 0) {
      l += " window=" + std::to_string(s.checker_window);
    }
    line(l);
  }
  if (s.check_override) {
    line(std::string("check ") + semantics_name(*s.check_override));
  }
  if (!s.expect_ok) line("expect fail");
  if (s.max_wall_ms != 0) line("deadline " + std::to_string(s.max_wall_ms));
  line("runseed " + std::to_string(s.run_seed));
  // Emitted only when off-default, like the open-loop keys.
  if (s.history_limit != 0 || !s.history_gc) {
    std::string l = "history";
    if (s.history_limit != 0) l += " limit=" + std::to_string(s.history_limit);
    if (!s.history_gc) l += " gc=off";
    line(l);
  }
  for (const auto& ev : s.events) line(emit_fault(ev));
  return out;
}

ScenarioParseResult load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ScenarioParseResult result;
    result.error = "cannot open " + path;
    return result;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto result = parse_scenario(buf.str());
  if (result.ok && result.scenario.name.empty()) {
    // An unnamed file-backed scenario takes its filename stem as the cell
    // name, so every library cell has a stable "scn:<name>" key.
    result.scenario.name = std::filesystem::path(path).stem().string();
  }
  return result;
}

bool save_scenario_file(const Scenario& s, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << emit_scenario(s);
  return static_cast<bool>(out.flush());
}

ScenarioLibrary load_scenario_dir(const std::string& dir) {
  ScenarioLibrary lib;
  std::error_code ec;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".scn") paths.push_back(entry.path());
  }
  if (ec) {
    lib.errors.push_back(dir + ": " + ec.message());
    return lib;
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    auto result = load_scenario_file(path.string());
    if (result.ok) {
      lib.scenarios.push_back(std::move(result.scenario));
    } else {
      lib.errors.push_back(path.string() + ": " + result.error);
    }
  }
  return lib;
}

}  // namespace rr::harness
