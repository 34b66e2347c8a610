// A directory of self-validating artifact envelopes: the one persistence tier
// behind Context's cache_dir (.kmod), NativeEngine's disk tier (.nso) and the
// shared netd::ArtifactStore, which are all the same thing.
//
// Files are named by the caller (content-addressed by key hash, e.g.
// "k%016llx.kmod"); each holds a kcc::SealEnvelope envelope embedding the full
// key text. Load reads a file once, opens its envelope once (one checksum
// pass) and checks the embedded key:
//   - a corrupt file (torn write, checksum flip, format-version bump, or a
//     body the caller cannot decode) is renamed aside as
//     "<name>.bad.<pid>.<n>" so it is never read again and the next publish
//     lands cleanly — never served, never fatal;
//   - a valid envelope for a different key (a hash collision) is left in
//     place: it is a miss for this key, not corruption.
// Publish validates the envelope against its key, then writes it through
// WriteFileAtomic (unique temp + fsync + rename), so concurrent publishers of
// one name are safe and readers only ever observe whole artifacts.
//
// ArtifactDir keeps no state beyond its path and counts nothing: each caller
// tallies the LoadResult into its own stats.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "kcc/serialize.hpp"

namespace kspec::kcc {

enum class LoadResult {
  kHit,        // validated artifact served
  kMissing,    // no (readable) file by that name
  kCorrupt,    // unreadable envelope or body; the file was quarantined
  kCollision,  // valid envelope keyed differently; left in place
};

class ArtifactDir {
 public:
  // Receives the body of a key-matching envelope (valid only during the
  // call). A SerializeError thrown from it marks the file corrupt.
  using BodyFn = std::function<void(std::span<const std::uint8_t> body)>;

  // `path` must name an existing directory (callers create it).
  explicit ArtifactDir(std::string path) : path_(std::move(path)) {}

  const std::string& path() const { return path_; }
  std::string PathFor(const std::string& file_name) const { return path_ + "/" + file_name; }

  // Reads `file_name` and validates it as a `kind` envelope embedding
  // `key_text`; on a hit runs `on_body` (if set) and, when `envelope` is
  // non-null, hands over the whole file as read.
  LoadResult Load(ArtifactKind kind, const std::string& file_name, const std::string& key_text,
                  const BodyFn& on_body, std::vector<std::uint8_t>* envelope = nullptr) const;

  // Publishes `envelope` as `file_name` after checking it is a well-formed
  // `kind` envelope embedding exactly `key_text`. False (with a warning) on
  // validation or I/O failure; persistence is best-effort.
  bool Publish(ArtifactKind kind, const std::string& file_name, const std::string& key_text,
               std::span<const std::uint8_t> envelope) const;

  // Cheap existence probe (no validation).
  bool Contains(const std::string& file_name) const;

  // Renames `file_name` aside as "<name>.bad.<pid>.<n>" (unlinks it if the
  // rename fails). For artifacts that open cleanly but prove unusable later,
  // e.g. a shared object built for an older native ABI.
  void Quarantine(const std::string& file_name) const;

 private:
  std::string path_;
};

}  // namespace kspec::kcc
