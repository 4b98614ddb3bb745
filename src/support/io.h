/**
 * @file
 * Binary serialization primitives and small-file helpers for the plan
 * store.
 *
 * ByteWriter/ByteReader implement a fixed-width little-endian wire
 * format: every multi-byte integer is written LSB first regardless of
 * host endianness, doubles travel by bit pattern (exact round trip),
 * and variable-length values are length-prefixed. The reader is fully
 * bounds-checked — any read past the end, oversized length prefix, or
 * malformed value latches a failure flag instead of touching memory, so
 * truncated or hostile store files are rejected, never crashed on.
 *
 * File helpers use POSIX primitives directly: atomic publication is a
 * write to a temporary name in the target directory followed by
 * rename(2), so concurrent readers of the plan store only ever observe
 * complete files.
 *
 * jsonEscape() is the one JSON string escaper every text exporter
 * (metrics, traces, daemon responses, batch stats) shares.
 */

#ifndef TESSEL_SUPPORT_IO_H
#define TESSEL_SUPPORT_IO_H

#include <cstdint>
#include <string>
#include <vector>

namespace tessel {

/** Append-only little-endian binary writer. */
class ByteWriter
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    /** Doubles travel by bit pattern: exact round trip, NaNs included. */
    void f64(double v);

    /** Length-prefixed byte string. */
    void str(const std::string &s);

    /** Raw bytes without a length prefix (headers, magic values). */
    void raw(const void *data, size_t size);

    const std::string &data() const { return buf_; }
    size_t size() const { return buf_.size(); }

  private:
    std::string buf_;
};

/**
 * Bounds-checked little-endian reader over a borrowed buffer. All
 * accessors return false (and latch failed()) instead of reading out of
 * bounds; once failed, every subsequent read also fails, so decoding
 * loops need only check failed() at their end.
 */
class ByteReader
{
  public:
    ByteReader(const void *data, size_t size)
        : p_(static_cast<const uint8_t *>(data)), end_(p_ + size)
    {
    }

    explicit ByteReader(const std::string &bytes)
        : ByteReader(bytes.data(), bytes.size())
    {
    }

    bool u8(uint8_t *out);
    bool u32(uint32_t *out);
    bool u64(uint64_t *out);
    bool i32(int32_t *out);
    bool i64(int64_t *out);
    bool boolean(bool *out);
    bool f64(double *out);

    /**
     * Length-prefixed string. The declared length is validated against
     * the bytes actually remaining, so a corrupt multi-gigabyte length
     * prefix fails cleanly instead of attempting the allocation.
     */
    bool str(std::string *out);

    /** Read exactly @p size raw bytes into @p out. */
    bool raw(void *out, size_t size);

    /**
     * Read a u32 element count for a sequence whose elements occupy at
     * least @p min_elem_bytes each; fails when the count could not
     * possibly fit in the remaining bytes. Decoders call this before
     * reserving vectors so corrupt counts cannot OOM.
     */
    bool count(uint32_t *out, size_t min_elem_bytes);

    size_t remaining() const { return static_cast<size_t>(end_ - p_); }
    bool atEnd() const { return p_ == end_ && !failed_; }
    bool failed() const { return failed_; }

    /** Latch a failure from a caller-side validation check. */
    void
    markFailed()
    {
        failed_ = true;
    }

  private:
    bool take(size_t n, const uint8_t **out);

    const uint8_t *p_;
    const uint8_t *end_;
    bool failed_ = false;
};

/**
 * Escape @p s for use inside a JSON string literal: `"` and `\`, plus
 * every byte below 0x20 — `\n`, `\r` and `\t` by name, the rest as
 * `\u00XX` — so the result never spans lines. Other bytes (UTF-8
 * included) pass through unchanged.
 */
std::string jsonEscape(const std::string &s);

/** Read a whole file; @return false with @p err set on any failure. */
bool readFile(const std::string &path, std::string *out, std::string *err);

/**
 * Atomically publish @p data at @p path: write to a unique temporary
 * name in the same directory, fsync, then rename(2) over the target.
 * Concurrent readers see either the old file or the complete new one.
 */
bool writeFileAtomic(const std::string &path, const std::string &data,
                     std::string *err);

/** mkdir -p equivalent; @return false with @p err set on failure. */
bool ensureDir(const std::string &path, std::string *err);

/** @return true when @p path names an existing regular file. */
bool fileExists(const std::string &path);

/** Remove a file; @return true when it no longer exists. */
bool removeFile(const std::string &path);

/** @return names (not paths) of regular files in @p dir with @p suffix. */
std::vector<std::string> listDirFiles(const std::string &dir,
                                      const std::string &suffix);

/** @return names (not paths) of subdirectories of @p dir, excluding
 * "." and ".." (empty when @p dir does not exist). */
std::vector<std::string> listDirSubdirs(const std::string &dir);

/**
 * Create a fresh uniquely-named directory under $TMPDIR (or /tmp) with
 * @p prefix; @return false on failure. Used by the service benches and
 * the store/service tests; the caller owns cleanup.
 */
bool makeTempDir(const std::string &prefix, std::string *path);

} // namespace tessel

#endif // TESSEL_SUPPORT_IO_H
