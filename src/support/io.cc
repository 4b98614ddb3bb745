#include "io.h"

#include <cerrno>
#include <cstdlib>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace tessel {

void
ByteWriter::f64(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
ByteWriter::str(const std::string &s)
{
    u32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
}

void
ByteWriter::raw(const void *data, size_t size)
{
    buf_.append(static_cast<const char *>(data), size);
}

bool
ByteReader::take(size_t n, const uint8_t **out)
{
    if (failed_ || remaining() < n) {
        failed_ = true;
        return false;
    }
    *out = p_;
    p_ += n;
    return true;
}

bool
ByteReader::u8(uint8_t *out)
{
    const uint8_t *p;
    if (!take(1, &p))
        return false;
    *out = p[0];
    return true;
}

bool
ByteReader::u32(uint32_t *out)
{
    const uint8_t *p;
    if (!take(4, &p))
        return false;
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    *out = v;
    return true;
}

bool
ByteReader::u64(uint64_t *out)
{
    const uint8_t *p;
    if (!take(8, &p))
        return false;
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    *out = v;
    return true;
}

bool
ByteReader::i32(int32_t *out)
{
    uint32_t v;
    if (!u32(&v))
        return false;
    *out = static_cast<int32_t>(v);
    return true;
}

bool
ByteReader::i64(int64_t *out)
{
    uint64_t v;
    if (!u64(&v))
        return false;
    *out = static_cast<int64_t>(v);
    return true;
}

bool
ByteReader::boolean(bool *out)
{
    uint8_t v;
    if (!u8(&v))
        return false;
    // Any non-canonical encoding is corruption, not a bool.
    if (v > 1) {
        failed_ = true;
        return false;
    }
    *out = v != 0;
    return true;
}

bool
ByteReader::f64(double *out)
{
    uint64_t bits;
    if (!u64(&bits))
        return false;
    std::memcpy(out, &bits, sizeof(*out));
    return true;
}

bool
ByteReader::str(std::string *out)
{
    uint32_t len;
    if (!u32(&len))
        return false;
    const uint8_t *p;
    if (!take(len, &p))
        return false;
    out->assign(reinterpret_cast<const char *>(p), len);
    return true;
}

bool
ByteReader::raw(void *out, size_t size)
{
    const uint8_t *p;
    if (!take(size, &p))
        return false;
    std::memcpy(out, p, size);
    return true;
}

bool
ByteReader::count(uint32_t *out, size_t min_elem_bytes)
{
    uint32_t n;
    if (!u32(&n))
        return false;
    if (min_elem_bytes > 0 &&
        static_cast<uint64_t>(n) * min_elem_bytes > remaining()) {
        failed_ = true;
        return false;
    }
    *out = n;
    return true;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

namespace {

std::string
errnoMessage(const std::string &what, const std::string &path)
{
    return what + " '" + path + "': " + std::strerror(errno);
}

} // namespace

bool
readFile(const std::string &path, std::string *out, std::string *err)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (err)
            *err = errnoMessage("open", path);
        return false;
    }
    out->clear();
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = errnoMessage("read", path);
            ::close(fd);
            return false;
        }
        if (n == 0)
            break;
        out->append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return true;
}

bool
writeFileAtomic(const std::string &path, const std::string &data,
                std::string *err)
{
    // Unique temp name in the same directory (rename must not cross
    // filesystems). pid + address suffices: one writer per (process,
    // call site) pair at a time.
    char suffix[64];
    std::snprintf(suffix, sizeof(suffix), ".tmp.%ld.%p",
                  static_cast<long>(::getpid()),
                  static_cast<const void *>(&data));
    const std::string tmp = path + suffix;

    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        if (err)
            *err = errnoMessage("open", tmp);
        return false;
    }
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = errnoMessage("write", tmp);
            ::close(fd);
            ::unlink(tmp.c_str());
            return false;
        }
        off += static_cast<size_t>(n);
    }
    if (::fsync(fd) != 0) {
        if (err)
            *err = errnoMessage("fsync", tmp);
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::close(fd) != 0) {
        if (err)
            *err = errnoMessage("close", tmp);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        if (err)
            *err = errnoMessage("rename", tmp);
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

bool
ensureDir(const std::string &path, std::string *err)
{
    if (path.empty()) {
        if (err)
            *err = "ensureDir: empty path";
        return false;
    }
    std::string partial;
    size_t pos = 0;
    while (pos <= path.size()) {
        const size_t slash = path.find('/', pos);
        const size_t end = slash == std::string::npos ? path.size() : slash;
        partial.assign(path, 0, end);
        pos = end + 1;
        if (partial.empty() || partial == ".")
            continue;
        if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
            if (err)
                *err = errnoMessage("mkdir", partial);
            return false;
        }
        if (slash == std::string::npos)
            break;
    }
    struct stat st;
    if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
        if (err)
            *err = "ensureDir: '" + path + "' is not a directory";
        return false;
    }
    return true;
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

bool
removeFile(const std::string &path)
{
    return ::unlink(path.c_str()) == 0 || errno == ENOENT;
}

bool
makeTempDir(const std::string &prefix, std::string *path)
{
    const char *tmpdir = ::getenv("TMPDIR");
    std::string name = std::string(tmpdir && *tmpdir ? tmpdir : "/tmp") +
                       "/" + prefix + "XXXXXX";
    std::vector<char> buf(name.begin(), name.end());
    buf.push_back('\0');
    if (!::mkdtemp(buf.data()))
        return false;
    path->assign(buf.data());
    return true;
}

std::vector<std::string>
listDirFiles(const std::string &dir, const std::string &suffix)
{
    std::vector<std::string> out;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return out;
    while (struct dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name.size() < suffix.size() ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
            continue;
        }
        if (fileExists(dir + "/" + name))
            out.push_back(name);
    }
    ::closedir(d);
    return out;
}

std::vector<std::string>
listDirSubdirs(const std::string &dir)
{
    std::vector<std::string> out;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return out;
    while (struct dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name == "." || name == "..")
            continue;
        struct stat st;
        if (::stat((dir + "/" + name).c_str(), &st) == 0 &&
            S_ISDIR(st.st_mode))
            out.push_back(name);
    }
    ::closedir(d);
    return out;
}

} // namespace tessel
