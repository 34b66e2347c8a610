// Persistent cache artifacts: the one self-validating envelope every artifact
// kind shares, and (de)serialization of CompiledModule inside it.
//
// This is what lets a *second process* skip run-time compilation entirely
// (the KLARAPTOR-style cross-run amortization): a compiled specialization is
// written to disk once and any later Context pointed at the same cache_dir
// loads it back at shared-object-load speed.
//
// The envelope is support's (support/serialize.hpp, little-endian):
//   [0..7]   magic: "KSPCMOD1" (.kmod module) or "KSPCNSO1" (.nso native)
//   [8..11]  u32 format version (kModuleFormatVersion / kNativeFormatVersion)
//   [12..19] u64 FNV-1a checksum of the payload bytes
//   [20..27] u64 payload byte count
//   [28..]   payload: length-prefixed cache-key canonical text, then the body
// A module body is the serialized CompiledModule; a native body is a u64
// byte count followed by the raw host shared-object image. The embedded key
// text lets readers detect a hash-colliding artifact; ABI / codegen
// compatibility of a shared object is validated separately at dlopen time
// (native::kNativeAbiVersion).
//
// Every reader throws SerializeError on any corruption, truncation, checksum
// mismatch, or version mismatch; cache consumers treat it as a miss and fall
// back to recompilation (never crash on a bad cache file).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "kcc/compiler.hpp"

namespace kspec::kcc {

// Bump whenever the serialized layout of CompiledModule (or the key text)
// changes; older artifacts are then treated as misses and recompiled.
inline constexpr std::uint32_t kModuleFormatVersion = 1;

// Bump whenever the .nso body layout changes; older artifacts are then
// treated as misses and rebuilt.
inline constexpr std::uint32_t kNativeFormatVersion = 1;

// Byte offset of the version field, for tests that forge a version bump.
inline constexpr std::size_t kFormatVersionOffset = 8;
inline constexpr std::size_t kNativeFormatVersionOffset = kFormatVersionOffset;

// Selects an envelope's magic and format version.
enum class ArtifactKind { kModule, kNative };

// Wraps `body` in a `kind` envelope embedding `key_text` (the canonical text
// of the key the artifact was built under).
std::vector<std::uint8_t> SealEnvelope(ArtifactKind kind, const std::string& key_text,
                                       std::span<const std::uint8_t> body);

// Checks a `kind` envelope's magic, version, size and checksum in one pass
// and returns its body (a view into `bytes`). If `key_text` is non-null it
// receives the embedded key text. Throws SerializeError on malformed input.
std::span<const std::uint8_t> OpenEnvelope(ArtifactKind kind, std::span<const std::uint8_t> bytes,
                                           std::string* key_text = nullptr);

// Body decoders for an already-opened envelope. Throw SerializeError on a
// malformed body.
CompiledModule DecodeModuleBody(std::span<const std::uint8_t> body);
std::span<const std::uint8_t> DecodeNativeBody(std::span<const std::uint8_t> body);

// Serializes `mod` into a .kmod artifact embedding `key_text`.
std::vector<std::uint8_t> Serialize(const CompiledModule& mod, const std::string& key_text = {});

// Parses an artifact produced by Serialize. If `key_text` is non-null it
// receives the embedded cache-key canonical text.
CompiledModule Deserialize(std::span<const std::uint8_t> bytes, std::string* key_text = nullptr);

// Wraps a shared-object image in the .nso envelope.
std::vector<std::uint8_t> SerializeNative(std::span<const std::uint8_t> so_bytes,
                                          const std::string& key_text);

// Unwraps a .nso artifact back to the raw shared-object image. If `key_text`
// is non-null it receives the embedded cache-key canonical text.
std::vector<std::uint8_t> DeserializeNative(std::span<const std::uint8_t> bytes,
                                            std::string* key_text = nullptr);

// Approximate in-memory footprint of a compiled module, used by the
// in-memory cache's LRU byte budget.
std::size_t ApproxModuleBytes(const CompiledModule& mod);

}  // namespace kspec::kcc
