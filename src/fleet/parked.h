// ParkedUser blobs: compact, versioned snapshots of a user's client-side
// state (HttpCache + Service Workers + EtagConfig + retry/negative-cache
// progress), taken between visits (DESIGN.md §12 names the callers).
//
// A parked user costs bytes instead of a live testbed: the blob carries
// only decisions the simulation cannot re-derive. Everything re-derivable
// is re-derived at revival — response bodies that still match the site's
// deterministic content are stored as a path reference and regenerated
// from Resource::content_at, which is what keeps blobs compact and, since
// every shard regenerates the identical catalog, shard-portable. String
// keys are remapped through a per-blob string table (no interned ids leak
// into the encoding), the second portability requirement.
//
// Decoding fails closed: a checksum is verified before any field is read,
// every read is bounds-checked, and the whole blob is decoded into plain
// structs before the first byte is applied to a testbed — a truncated,
// bit-flipped or wrong-version blob yields ReviveStatus::Corrupt and an
// untouched (cold) testbed, never a partially-restored one.
#pragma once

#include <cstdint>
#include <string>

#include "core/testbed.h"

namespace catalyst::fleet {

/// Bump when the blob layout changes; decoders reject other versions.
inline constexpr std::uint16_t kParkedFormatVersion = 1;

enum class ReviveStatus {
  Ok,
  /// The blob failed validation (checksum, bounds, version, identity);
  /// the testbeds were left untouched — the user revives cold.
  Corrupt,
};

struct ReviveResult {
  ReviveStatus status = ReviveStatus::Corrupt;
  /// Straggler events drained at park time, owed to the next visit's
  /// loop_events so event totals match a never-parked replay.
  std::uint64_t treat_stragglers = 0;
  std::uint64_t base_stragglers = 0;
};

/// Serializes `user_id`'s client state. The testbeds' event loops must be
/// drained (run()) first; the drained event counts ride along as
/// straggler carries. `base` is the optional comparison arm (nullptr when
/// the fleet runs a single arm).
std::string park_user(std::uint64_t user_id, core::Testbed& treat,
                      std::uint64_t treat_stragglers, core::Testbed* base,
                      std::uint64_t base_stragglers);

/// Restores a blob into freshly constructed testbeds (same site/strategy/
/// conditions the user was parked with). On Corrupt nothing is applied.
/// `base` must be non-null iff the blob was parked with a baseline arm.
ReviveResult revive_user(const std::string& blob, std::uint64_t user_id,
                         core::Testbed& treat, core::Testbed* base);

}  // namespace catalyst::fleet
