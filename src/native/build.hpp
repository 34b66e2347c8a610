// Host-toolchain discovery and shared-object compilation for the native tier.
//
// The native backend is only as available as the host's C++ compiler. The
// probe order is:
//
//   1. KSPEC_NATIVE_CXX — authoritative when set: a usable value selects that
//      compiler, an unusable one disables the tier outright (tests point it
//      at /nonexistent to simulate hosts without a toolchain);
//   2. the compiler that built this binary (cmake bakes its path in as
//      KSPEC_HOST_CXX);
//   3. `c++`, `g++`, `clang++` on PATH.
//
// Discovery runs once per process. A build writes the translation unit into
// a scratch ScopedTempDir, invokes the compiler with the flags
// src/native/CMakeLists.txt defines once (HostCxxFlags), and reads the shared
// object back as bytes. No fast-math: the generated code must stay
// bit-identical to the interpreter, and the transcendentals resolve to the
// same libm either way.
//
// Every emitted TU opens with the embedded runtime text (codegen.hpp). A GNU
// build precompiles that text once, at build time, into a header beside its
// .gch (RuntimePchHeader). A build uses it when the TU opens with the
// runtime text and the compiler is the one that built the .gch: it then
// writes the TU without that prefix and passes `-include <header>`, so the
// host compiler loads the parsed runtime instead of parsing it again. GCC
// ignores a .gch it cannot use and reads the identical header text, so the
// shared object is the same either way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace kspec::native {

// The discovered host compiler (a path or a command name), or "" when the
// native tier is unavailable on this host. Probed once, then cached.
const std::string& HostCompiler();

inline bool ToolchainAvailable() { return !HostCompiler().empty(); }

// The flags every build passes to the host compiler, besides -shared.
const char* HostCxxFlags();

// The precompiled runtime header builds `-include`, or "" when they parse the
// runtime text. Non-empty only on a GNU toolchain build whose HostCompiler()
// is the compiler that built this binary, and whose header in the build
// tree hashes to EmbeddedRuntimeHash() with a .gch no older than it. Checked
// once, then cached.
const std::string& RuntimePchHeader();

// Compiles `source` (a full C++20 translation unit) into a shared object and
// returns its bytes. On failure returns empty and, when `error` is non-null,
// fills it with the compiler's diagnostics (or the failing step).
std::vector<std::uint8_t> CompileSharedObject(const std::string& source, std::string* error);

}  // namespace kspec::native
