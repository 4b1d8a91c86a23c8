// pbse-serve wire framing: length-prefixed JSON messages plus binary
// frames (DESIGN.md §11, §13). The JSON value itself is support/json.h.
//
// Every message is framed by a u32 little-endian byte length. The top bit
// of the prefix discriminates the two message classes sharing one socket:
//
//   bit 31 clear  ->  one JSON object (control plane: requests, replies,
//                     event streams). Inspectable with `socat` + a human.
//   bit 31 set    ->  one pbsf binary frame (serialize/frame.h; data
//                     plane: job assignments, results, heartbeats, fetched
//                     checkpoints). Snapshot payloads ride here as raw pbss
//                     bytes — never base64'd through the JSON lane.
//
// Old peers reject binary frames loudly (a set top bit decodes as an
// absurd length above their 16 MB cap) rather than misparsing them.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/json.h"

namespace pbse::server {

/// The control lane's message value, under the name server code and its
/// clients spell it.
using pbse::Json;

/// Malformed frame or JSON, or a closed/failed socket mid-message.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Upper bound on one JSON frame; a corrupt length prefix must not trigger
/// a multi-gigabyte allocation.
inline constexpr std::uint32_t kMaxMessageBytes = 16u << 20;

/// Length-prefix bit marking a binary (pbsf) frame instead of JSON.
inline constexpr std::uint32_t kBinaryFrameBit = 0x8000'0000u;

/// Upper bound on one binary frame body. Campaign snapshots dwarf control
/// messages, so the data plane gets a larger (but still sane) cap.
inline constexpr std::uint32_t kMaxBinaryFrameBytes = 1u << 30;

/// Blocking send of `msg` as [u32 LE length][utf-8 json]. Throws
/// ProtocolError on socket failure.
void send_message(int fd, const Json& msg);

/// Blocking send of pre-encoded pbsf frame bytes (serialize::encode_frame
/// output) as [u32 LE length | kBinaryFrameBit][bytes].
void send_frame_bytes(int fd, const std::vector<std::uint8_t>& framed);

/// Blocking receive of one framed message. Returns false on clean EOF at a
/// frame boundary; throws ProtocolError on mid-frame EOF, malformed data,
/// or a binary frame (callers that speak both lanes use recv_wire).
bool recv_message(int fd, Json& out);

/// What recv_wire pulled off the socket.
enum class WireKind { kEof, kJson, kFrame };

/// Blocking receive of the next message of either class. Fills `msg` for
/// kJson, `frame` (raw pbsf bytes, still framed) for kFrame.
WireKind recv_wire(int fd, Json& msg, std::vector<std::uint8_t>& frame);

}  // namespace pbse::server
