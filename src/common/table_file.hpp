// The on-disk discipline of the library's two persistent tables, the
// tuning table (tune/tuning_table.hpp) and the health ledger
// (resilience/health_ledger.hpp):
//   * a `<magic> <version>` line, then a `hw <signature>` line;
//   * an advisory cross-process lock on `<path>.lock`;
//   * saves that write `<path>.tmp` and rename it over the file, so a
//     reader never sees a torn table.
//
// Not installed; not part of the public API.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace iatf {

/// Advisory cross-process lock on `<path>.lock`. Writers of one path from
/// different processes serialise, so a reader never observes one writer's
/// tmp file renamed over by another's, nor two appenders' interleaved
/// lines (the rename itself is atomic; the lock keeps the pairing of tmp
/// content and final name coherent). If the lock cannot be taken the
/// holder runs unlocked: the atomic rename still protects readers. The
/// lock file is left in place -- deleting it would race a third process
/// opening it.
class FileLock {
public:
  explicit FileLock(const std::string& path);
  ~FileLock();
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

private:
  int fd_ = -1;
};

/// Write the two header lines.
void write_table_header(std::ostream& out, const char* magic, int version,
                        const std::string& hardware);

enum class TableHeader { Ok, Corrupt, OtherHardware };

/// Read and check the two header lines. On Ok the stream is at the first
/// record line.
TableHeader read_table_header(std::istream& in, const char* magic,
                              int version, const std::string& hardware);

/// Under the path's FileLock, write the header and `body` to
/// `<path>.tmp`, flush, and rename it over `path`. False, with the tmp
/// file removed, when either step fails.
bool save_table(const std::string& path, const char* magic, int version,
                const std::string& hardware,
                const std::function<void(std::ostream&)>& body);

} // namespace iatf
