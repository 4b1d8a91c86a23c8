#include "server/protocol.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

namespace pbse::server {

namespace {

void write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    // MSG_NOSIGNAL: a peer that died (kill -9'd worker, vanished client)
    // must surface as EPIPE -> ProtocolError -> the caller's dead-endpoint
    // path, not as a process-killing SIGPIPE.
    ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(std::string("socket write failed: ") +
                          std::strerror(errno));
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// Returns bytes read; stops early only at EOF.
std::size_t read_upto(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    ssize_t n = ::read(fd, p + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(std::string("socket read failed: ") +
                          std::strerror(errno));
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  return got;
}

}  // namespace

namespace {

void write_length_prefix(int fd, std::uint32_t len) {
  unsigned char hdr[4] = {
      static_cast<unsigned char>(len & 0xFF),
      static_cast<unsigned char>((len >> 8) & 0xFF),
      static_cast<unsigned char>((len >> 16) & 0xFF),
      static_cast<unsigned char>((len >> 24) & 0xFF),
  };
  write_all(fd, hdr, sizeof(hdr));
}

}  // namespace

void send_message(int fd, const Json& msg) {
  std::string body = msg.dump();
  if (body.size() > kMaxMessageBytes)
    throw ProtocolError("outgoing message exceeds frame limit");
  write_length_prefix(fd, static_cast<std::uint32_t>(body.size()));
  write_all(fd, body.data(), body.size());
}

void send_frame_bytes(int fd, const std::vector<std::uint8_t>& framed) {
  if (framed.size() > kMaxBinaryFrameBytes)
    throw ProtocolError("outgoing binary frame exceeds limit");
  write_length_prefix(
      fd, static_cast<std::uint32_t>(framed.size()) | kBinaryFrameBit);
  write_all(fd, framed.data(), framed.size());
}

WireKind recv_wire(int fd, Json& msg, std::vector<std::uint8_t>& frame) {
  unsigned char hdr[4];
  std::size_t got = read_upto(fd, hdr, sizeof(hdr));
  if (got == 0) return WireKind::kEof;  // clean EOF between frames
  if (got != sizeof(hdr))
    throw ProtocolError("connection closed mid-frame header");
  std::uint32_t len = static_cast<std::uint32_t>(hdr[0]) |
                      (static_cast<std::uint32_t>(hdr[1]) << 8) |
                      (static_cast<std::uint32_t>(hdr[2]) << 16) |
                      (static_cast<std::uint32_t>(hdr[3]) << 24);
  if (len & kBinaryFrameBit) {
    len &= ~kBinaryFrameBit;
    if (len > kMaxBinaryFrameBytes)
      throw ProtocolError("incoming binary frame length " +
                          std::to_string(len) + " exceeds limit");
    frame.assign(len, 0);
    if (read_upto(fd, frame.data(), len) != len)
      throw ProtocolError("connection closed mid-frame body");
    return WireKind::kFrame;
  }
  if (len > kMaxMessageBytes)
    throw ProtocolError("incoming frame length " + std::to_string(len) +
                        " exceeds limit");
  std::string body(len, '\0');
  if (read_upto(fd, body.data(), len) != len)
    throw ProtocolError("connection closed mid-frame body");
  try {
    msg = parse_json(body);
  } catch (const JsonError& e) {
    // Callers guard the socket with ProtocolError alone; a malformed body
    // must close one connection, not escape as a second error type.
    throw ProtocolError(e.what());
  }
  return WireKind::kJson;
}

bool recv_message(int fd, Json& out) {
  std::vector<std::uint8_t> frame;
  switch (recv_wire(fd, out, frame)) {
    case WireKind::kEof: return false;
    case WireKind::kJson: return true;
    case WireKind::kFrame:
      throw ProtocolError("unexpected binary frame on a JSON-only channel");
  }
  return false;  // unreachable
}

}  // namespace pbse::server
