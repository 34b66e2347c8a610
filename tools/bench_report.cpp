// bench_report: aggregates the --json outputs of bench binaries into one
// report file, so a benchmark trajectory across configurations or commits
// lives in a single reviewable artifact.
//
// Usage: bench_report [-o out.json] [--append] session1.json [session2.json ...]
//
// Without -o the output name is derived from the first session's "bench"
// field — bench_interp and bench_fig_6_1_6_2 -> BENCH_interp.json,
// bench_compile_overhead -> BENCH_compile.json, bench_autotune ->
// BENCH_tune.json, bench_native -> BENCH_native.json, bench_netd ->
// BENCH_netd.json — so each bench family lands in its own artifact by
// default. Any other bench needs -o: the tool exits non-zero rather than
// overwrite another family's report.
//
// Each input is a bench Session file ({"bench": ..., "records": [...]}); the
// output wraps them in {"benches": [...]}. Inputs are embedded verbatim, so
// the tool stays schema-agnostic — any valid JSON object per input works.
// With --append, sessions already in the output file are kept and the new
// inputs are folded onto the end (e.g. growing BENCH_tune.json across PRs);
// a missing or empty output file appends onto nothing.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

std::string Trim(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.pop_back();
  }
  std::size_t i = 0;
  while (i < s.size() && (s[i] == '\n' || s[i] == ' ' || s[i] == '\t' || s[i] == '\r')) ++i;
  return s.substr(i);
}

// Splits an existing {"benches": [...]} report into its top-level session
// bodies (balanced-brace scan; the embedded sessions are objects). Returns
// false when the file does not look like a report.
bool ExistingSessions(const std::string& text, std::vector<std::string>* out) {
  const std::size_t open = text.find('[');
  const std::size_t close = text.rfind(']');
  if (open == std::string::npos || close == std::string::npos || close < open) return false;
  int depth = 0;
  bool in_string = false;
  std::size_t start = std::string::npos;
  for (std::size_t i = open + 1; i < close; ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') {
      if (depth++ == 0) start = i;
    } else if (c == '}') {
      if (--depth == 0 && start != std::string::npos) {
        out->push_back(text.substr(start, i - start + 1));
        start = std::string::npos;
      }
    }
  }
  return depth == 0 && !in_string;
}

// Pulls the "bench" field out of a session body (flat string scan; the field
// is written by bench::Session, first in the object). Empty when absent.
std::string BenchName(const std::string& body) {
  const std::string tag = "\"bench\"";
  std::size_t pos = body.find(tag);
  if (pos == std::string::npos) return "";
  pos = body.find('"', body.find(':', pos + tag.size()));
  if (pos == std::string::npos) return "";
  const std::size_t end = body.find('"', pos + 1);
  if (end == std::string::npos) return "";
  return body.substr(pos + 1, end - pos - 1);
}

// Default report path for a session family: each bench binary's sessions
// aggregate into their own BENCH_*.json artifact. Empty for a bench with no
// artifact of its own.
std::string DefaultOutPath(const std::string& bench) {
  if (bench == "bench_interp" || bench == "bench_fig_6_1_6_2") return "BENCH_interp.json";
  if (bench == "bench_compile_overhead") return "BENCH_compile.json";
  if (bench == "bench_netd") return "BENCH_netd.json";
  if (bench == "bench_autotune") return "BENCH_tune.json";
  if (bench == "bench_native") return "BENCH_native.json";
  return "";
}

// Light field scans over one record object ({"name": ..., "wall_ms": ...}).
// The records are machine-written by bench::Session, so a flat find is
// reliable; absent fields return the fallback.
std::string StringField(const std::string& body, const std::string& field,
                        const std::string& fallback = "") {
  const std::string tag = "\"" + field + "\"";
  std::size_t pos = body.find(tag);
  if (pos == std::string::npos) return fallback;
  pos = body.find('"', body.find(':', pos + tag.size()));
  if (pos == std::string::npos) return fallback;
  const std::size_t end = body.find('"', pos + 1);
  if (end == std::string::npos) return fallback;
  return body.substr(pos + 1, end - pos - 1);
}

std::string NumberField(const std::string& body, const std::string& field) {
  const std::string tag = "\"" + field + "\"";
  std::size_t pos = body.find(tag);
  if (pos == std::string::npos) return "";
  pos = body.find(':', pos + tag.size());
  if (pos == std::string::npos) return "";
  ++pos;
  while (pos < body.size() && body[pos] == ' ') ++pos;
  std::size_t end = pos;
  while (end < body.size() && body[end] != ',' && body[end] != '}') ++end;
  return body.substr(pos, end - pos);
}

// Prints one line per record of every session: bench, record name, the tier
// that served (when the bench reports one), wall milliseconds, and speedup.
void PrintSummary(const std::vector<std::string>& bodies) {
  std::printf("  %-16s %-24s %-8s %12s %9s\n", "bench", "record", "tier", "wall_ms",
              "speedup");
  for (const std::string& session : bodies) {
    const std::string bench = BenchName(session);
    std::vector<std::string> records;
    const std::size_t recs = session.find("\"records\"");
    if (recs == std::string::npos) continue;
    if (!ExistingSessions(session.substr(recs), &records)) continue;
    for (const std::string& r : records) {
      const std::string tier = StringField(r, "tier", "-");
      const std::string wall = NumberField(r, "wall_ms");
      const std::string speedup = NumberField(r, "speedup");
      std::printf("  %-16s %-24s %-8s %12s %9s\n", bench.c_str(),
                  StringField(r, "name").c_str(), tier.c_str(), wall.c_str(),
                  speedup.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  bool append = false;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-o" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--append") {
      append = true;
    } else if (a == "-h" || a == "--help") {
      std::cout << "usage: bench_report [-o out.json] [--append] session1.json "
                   "[session2.json ...]\n";
      return 0;
    } else {
      inputs.push_back(a);
    }
  }
  if (inputs.empty()) {
    std::cerr << "bench_report: no input files (see --help)\n";
    return 1;
  }

  std::vector<std::string> session_bodies;
  for (const std::string& path : inputs) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "bench_report: cannot read " << path << "\n";
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string body = Trim(ss.str());
    if (body.empty()) {
      std::cerr << "bench_report: " << path << " is empty\n";
      return 1;
    }
    session_bodies.push_back(std::move(body));
  }
  if (out_path.empty()) {
    const std::string bench = BenchName(session_bodies.front());
    out_path = DefaultOutPath(bench);
    if (out_path.empty()) {
      std::cerr << "bench_report: no default report for bench '" << bench
                << "'; name one with -o\n";
      return 1;
    }
  }

  std::vector<std::string> bodies;
  if (append) {
    std::ifstream in(out_path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      const std::string existing = Trim(ss.str());
      if (!existing.empty() && !ExistingSessions(existing, &bodies)) {
        std::cerr << "bench_report: " << out_path << " is not a bench report; not appending\n";
        return 1;
      }
    }
  }
  for (std::string& body : session_bodies) bodies.push_back(std::move(body));

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_report: cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n\"benches\": [\n";
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    out << bodies[i] << (i + 1 < bodies.size() ? "," : "") << "\n";
  }
  out << "]\n}\n";
  std::cout << "bench_report: wrote " << out_path << " (" << bodies.size() << " sessions)\n";
  PrintSummary(bodies);
  return 0;
}
