#include "native/build.hpp"

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>

#include "support/serialize.hpp"
#include "support/str.hpp"
#include "support/temp_dir.hpp"

#ifndef KSPEC_HOST_CXX
#define KSPEC_HOST_CXX ""
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

}  // namespace

const std::string& HostCompiler() {
  static const std::string cxx = Discover();
  return cxx;
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
  {
    std::ofstream f(src, std::ios::binary);
    f << source;
    if (!f) {
      if (error) *error = Format("could not write %s", src.c_str());
      return {};
    }
  }
  // -fvisibility=hidden keeps every runtime and prelude symbol private to the
  // SO (the embedded simt.hpp code never interposes on the host's); only
  // the extern "C" entry points (emitted with default visibility) export.
  // -O3 so the full-mask lane loops (32 independent scalar ops) vectorize;
  // no -ffast-math or -march flags — results must stay bit-identical to the
  // interpreter and artifacts portable across the machines sharing a store.
  const std::string cmd = ShellQuoted(cxx) +
                          " -std=c++20 -O3 -fPIC -shared -fvisibility=hidden -o " +
                          ShellQuoted(so) + " " + ShellQuoted(src) + " > " +
                          ShellQuoted(log) + " 2>&1";
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
