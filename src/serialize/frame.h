// pbsf: the binary job-transfer frame (DESIGN.md §13).
//
// pbss solved "a campaign is pure data between slices"; pbsf is how that
// data MOVES — between the daemon and worker processes, across hosts over
// the TCP listener, and into the state directory as a single-file
// checkpoint. A frame is:
//
//   magic "PBSF" | u32 version | u32 kind | u64 payload size | payload
//   | u64 FNV-1a checksum over everything before it
//
// Same discipline as pbss: fixed-width little-endian integers written byte
// by byte (host-portable), defensive decoding (truncation, bad magic,
// version mismatch, checksum failure all raise SnapshotError), and — the
// point of the format — snapshot payloads travel as RAW pbss bytes inside
// the payload, never base64'd or re-encoded through JSON. A job frame
// carrying a 40 MB campaign image costs 40 MB on the wire plus a fixed
// header, and the embedded pbss checksum still guards the snapshot
// end-to-end.
#pragma once

#include <cstdint>
#include <vector>

#include "serialize/pbss.h"

namespace pbse::serialize {

inline constexpr std::uint32_t kPbsfVersion = 2;

/// What the payload holds. Values are wire format — never renumber.
enum class FrameKind : std::uint32_t {
  /// Daemon -> worker: one wire-encoded JobRecord plus slice parameters;
  /// "run one slice of this".
  kJobAssign = 1,
  /// Worker -> daemon: the wire-encoded JobRecord after the slice, plus
  /// worker-side bookkeeping (peak RSS).
  kJobResult = 2,
  /// Worker -> daemon: liveness beacon while a slice is computing. Empty
  /// payload.
  kHeartbeat = 3,
  // 4 is retired (it carried an opt-in UNSAT-core cache seed); never reuse.
  /// A persisted checkpoint (job-<id>.pbsf in the state directory) or a
  /// `fetch` reply: one wire-encoded JobRecord including its snapshot.
  kJobRecord = 5,
};

/// Frames `payload` (header + checksum footer) into a byte buffer.
std::vector<std::uint8_t> encode_frame(FrameKind kind,
                                       const std::vector<std::uint8_t>& payload);

/// Validates framing and checksum, returns the kind and fills `payload`.
/// Throws SnapshotError on any corruption or version mismatch.
FrameKind decode_frame(const std::vector<std::uint8_t>& framed,
                       std::vector<std::uint8_t>& payload);

}  // namespace pbse::serialize
