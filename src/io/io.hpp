#pragma once
// lens::io — the durability layer: crash-safe atomic file replacement plus
// checksummed containers that make truncated or corrupted files *detected*
// at load time instead of half-parsed.
//
// Two container flavours share the same FNV-1a integrity core:
//  - "checked" text files: the payload is written verbatim (so CSVs stay
//    readable by external tooling) and a trailing comment-style footer
//    `# lens:fnv1a <hex16> <bytes>` seals it. A file truncated at any byte
//    offset loses or damages the footer and is rejected.
//  - "framed" records: a leading header `lens-io v1 <format> <bytes> <hex16>`
//    names and versions the payload; used for the run-checkpoint snapshots.
//
// All writers go through atomic_write: write-temp -> flush -> fsync ->
// rename (+ directory fsync), so a SIGKILL mid-write leaves either the old
// file or the new one, never a partial hybrid, and every stream failure
// (full disk, closed descriptor) surfaces as std::runtime_error instead of
// a silently truncated file.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace lens::io {

/// The repository's own FNV-1a offset basis, not the textbook 64-bit one
/// (14695981039346656037): it drops that value's last digit. Every file
/// footer, checkpoint frame, golden pin and perfbench digest depends on it,
/// as do the MOBO duplicate index and the genotype cache, so changing it is
/// a declared re-baseline.
inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a over raw bytes; `seed` lets callers chain chunks.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed = kFnvOffsetBasis);

/// Bit-exact double round-trip via the IEEE-754 representation: 16 lowercase
/// hex digits. Signed zeros, denormals, infinities and NaN payloads all
/// survive; this is the encoding every checkpoint field uses so that a
/// restored search continues with the *identical* floats.
std::string encode_double(double value);
/// Throws std::invalid_argument on anything but exactly 16 hex digits.
double decode_double(std::string_view hex);

/// Durable atomic replacement of `path`: the writer streams into
/// `path + ".tmp"`, the stream state is verified after the writer returns
/// and again after flush/close, the temp file is fsync'ed, renamed over
/// `path`, and the containing directory is fsync'ed. On any failure the
/// temp file is removed, the previous `path` contents are left untouched,
/// and std::runtime_error is thrown.
void atomic_write(const std::string& path,
                  const std::function<void(std::ostream&)>& writer);

/// atomic_write plus the `# lens:fnv1a <hex16> <bytes>` integrity footer
/// appended after the writer's payload.
void atomic_write_checked(const std::string& path,
                          const std::function<void(std::ostream&)>& writer);

/// Read a file written by atomic_write_checked, verify the footer (present,
/// size matches, checksum matches) and return the payload with the footer
/// stripped. Throws std::runtime_error naming the failure — a file
/// truncated at any byte offset, or with trailing garbage after the footer,
/// is rejected here before any parsing happens.
std::string read_checked(const std::string& path);

/// Write a framed record: `lens-io v1 <format> <bytes> <hex16>\n` + payload,
/// atomically. `format` names and versions the payload schema (e.g.
/// "mobo-snapshot-v1") and may not contain whitespace.
void write_framed(const std::string& path, const std::string& format,
                  const std::string& payload);

/// Read a framed record and return the verified payload. Throws
/// std::runtime_error on a missing/garbled header, a format-name mismatch,
/// a short payload (truncation), trailing bytes, or a checksum mismatch.
std::string read_framed(const std::string& path, const std::string& format);

}  // namespace lens::io
