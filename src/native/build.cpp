#include "native/build.hpp"

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string_view>

#include "native/codegen.hpp"
#include "support/serialize.hpp"
#include "support/str.hpp"
#include "support/temp_dir.hpp"

#ifndef KSPEC_HOST_CXX
#define KSPEC_HOST_CXX ""
#endif
#ifndef KSPEC_RUNTIME_PCH
#define KSPEC_RUNTIME_PCH ""
#endif
#ifndef KSPEC_NATIVE_CXX_FLAGS
#error "KSPEC_NATIVE_CXX_FLAGS is defined by src/native/CMakeLists.txt"
#endif

namespace kspec::native {
namespace {

std::string ShellQuoted(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

bool Probe(const std::string& cxx) {
  if (cxx.empty()) return false;
  const std::string cmd = ShellQuoted(cxx) + " --version > /dev/null 2>&1";
  return std::system(cmd.c_str()) == 0;
}

std::string Discover() {
  if (const char* env = std::getenv("KSPEC_NATIVE_CXX")) {
    // Authoritative: a broken value means "pretend there is no toolchain",
    // not "fall through to one that works".
    return Probe(env) ? std::string(env) : std::string();
  }
  if (Probe(KSPEC_HOST_CXX)) return KSPEC_HOST_CXX;
  for (const char* candidate : {"c++", "g++", "clang++"}) {
    if (Probe(candidate)) return candidate;
  }
  return {};
}

std::string FindRuntimePch() {
  const std::string header = KSPEC_RUNTIME_PCH;
  if (header.empty() || HostCompiler() != KSPEC_HOST_CXX) return {};
  std::vector<std::uint8_t> text;
  if (!ReadFileBytes(header, &text) ||
      Fnv1aBytes(text.data(), text.size()) != EmbeddedRuntimeHash()) {
    return {};
  }
  // GCC checks a .gch against the compile's flags, not against the header's
  // text, so a .gch older than the header (a rebuild in progress) is not used.
  std::error_code header_err, gch_err;
  const auto header_time = std::filesystem::last_write_time(header, header_err);
  const auto gch_time = std::filesystem::last_write_time(header + ".gch", gch_err);
  if (header_err || gch_err || gch_time < header_time) return {};
  return header;
}

}  // namespace

const std::string& HostCompiler() {
  static const std::string cxx = Discover();
  return cxx;
}

const char* HostCxxFlags() { return KSPEC_NATIVE_CXX_FLAGS; }

const std::string& RuntimePchHeader() {
  static const std::string header = FindRuntimePch();
  return header;
}

std::vector<std::uint8_t> CompileSharedObject(const std::string& source, std::string* error) {
  const std::string& cxx = HostCompiler();
  if (cxx.empty()) {
    if (error) *error = "no usable host C++ compiler";
    return {};
  }
  ScopedTempDir scratch("kspec-native-build");
  if (!scratch.valid()) {
    if (error) *error = "could not create a build scratch directory";
    return {};
  }
  const std::string src = scratch.File("native.cpp");
  const std::string so = scratch.File("native.so");
  const std::string log = scratch.File("build.log");
  // A TU that opens with the runtime text gets it from the PCH instead.
  const std::string& pch = RuntimePchHeader();
  std::string_view text = source;
  const bool use_pch = !pch.empty() && text.starts_with(kEmbeddedRuntime);
  if (use_pch) text.remove_prefix(std::string_view(kEmbeddedRuntime).size());
  {
    std::ofstream f(src, std::ios::binary);
    f << text;
    if (!f) {
      if (error) *error = Format("could not write %s", src.c_str());
      return {};
    }
  }
  std::string cmd = ShellQuoted(cxx) + " " + HostCxxFlags() + " -shared";
  if (use_pch) cmd += " -include " + ShellQuoted(pch);
  cmd += " -o " + ShellQuoted(so) + " " + ShellQuoted(src) + " > " + ShellQuoted(log) + " 2>&1";
  if (std::system(cmd.c_str()) != 0) {
    if (error) {
      std::ifstream lf(log, std::ios::binary);
      std::ostringstream diag;
      diag << lf.rdbuf();
      *error = Format("host compiler failed: %s", diag.str().c_str());
    }
    return {};
  }
  std::vector<std::uint8_t> bytes;
  if (!ReadFileBytes(so, &bytes) || bytes.empty()) {
    if (error) *error = Format("could not read compiled object %s", so.c_str());
    return {};
  }
  return bytes;
}

}  // namespace kspec::native
