// pbss: the versioned binary snapshot format (DESIGN.md §11).
//
// A snapshot is a framed, checksummed byte stream:
//
//   magic "PBSS" | u32 version | u32 flavor | u64 payload size | payload
//   | u64 FNV-1a checksum over everything before it
//
// All integers are fixed-width LITTLE-ENDIAN, written byte by byte — a
// snapshot taken on any host restores on any other. The payload encoding
// is CANONICAL: every unordered container is emitted in sorted order and
// every shared node through a deterministic dedup table, so re-serializing
// a restored campaign reproduces the snapshot byte for byte (the
// round-trip property tests lock this in).
//
// Decoding is defensive: truncation, bad magic, version/flavor mismatch
// and checksum failure all raise SnapshotError with a diagnostic — a
// corrupted checkpoint must fail loudly, never resume silently wrong.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace pbse::serialize {

/// Any malformed-snapshot condition (truncation, corruption, mismatch).
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Bumped on every payload layout change; no reader for older versions is
/// kept, so a stale image fails the version check.
inline constexpr std::uint32_t kPbssVersion = 5;

/// What kind of campaign the payload holds.
enum class SnapshotFlavor : std::uint32_t {
  kKlee = 1,
  kPbse = 2,
};

/// FNV-1a over a byte range (the footer checksum).
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size);

/// Append-only little-endian encoder.
class Encoder {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void blob(const std::vector<std::uint8_t>& b) {
    u64(b.size());
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over a byte buffer. Every read
/// past the end throws SnapshotError (truncated snapshot).
class Decoder {
 public:
  Decoder(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Decoder(const std::vector<std::uint8_t>& buf)
      : Decoder(buf.data(), buf.size()) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_++]} << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_++]} << (8 * i);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  std::vector<std::uint8_t> blob() {
    const std::uint64_t n = u64();
    need(n);
    std::vector<std::uint8_t> b(data_ + pos_, data_ + pos_ + n);
    pos_ += static_cast<std::size_t>(n);
    return b;
  }

  /// Reads a u32 element count and throws unless that many elements of at
  /// least `min_item_bytes` each fit in the unread bytes. Every count that
  /// sizes a container goes through here, so a forged count can never ask
  /// for more memory than a small multiple of the input's own size.
  std::uint32_t count(std::size_t min_item_bytes) {
    const std::uint32_t n = u32();
    if (std::uint64_t{n} * min_item_bytes > remaining())
      throw SnapshotError("pbss: count " + std::to_string(n) +
                          " at offset " + std::to_string(pos_ - 4) +
                          " exceeds the " + std::to_string(remaining()) +
                          " bytes left");
    return n;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  void need(std::uint64_t n) const {
    if (n > size_ - pos_)
      throw SnapshotError("pbss: truncated snapshot (need " +
                          std::to_string(n) + " bytes at offset " +
                          std::to_string(pos_) + ", have " +
                          std::to_string(size_ - pos_) + ")");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Frames `payload` (header + checksum footer) into a byte buffer.
std::vector<std::uint8_t> frame_snapshot(SnapshotFlavor flavor,
                                         const std::vector<std::uint8_t>& payload);

/// Validates framing and checksum, returns the payload. `expect` of the
/// wrong flavor — or any corruption — throws SnapshotError.
std::vector<std::uint8_t> unframe_snapshot(const std::vector<std::uint8_t>& framed,
                                           SnapshotFlavor expect);

/// Atomically writes `framed` to `path` (tmp file + rename, so a crash
/// mid-write never leaves a half snapshot under the final name). Throws
/// SnapshotError on I/O failure.
void write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& framed);

/// Reads a whole file; throws SnapshotError if it cannot be opened.
std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace pbse::serialize
