#include "table_file.hpp"

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <limits>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#define IATF_HAVE_FLOCK 1
#endif

namespace iatf {

#if defined(IATF_HAVE_FLOCK)
FileLock::FileLock(const std::string& path)
    : fd_(::open((path + ".lock").c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                 0644)) {
  if (fd_ >= 0) {
    while (::flock(fd_, LOCK_EX) != 0) {
      if (errno != EINTR) {
        break; // degrade to unlocked
      }
    }
  }
}

FileLock::~FileLock() {
  if (fd_ >= 0) {
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
  }
}
#else
FileLock::FileLock(const std::string&) {}
FileLock::~FileLock() = default;
#endif

void write_table_header(std::ostream& out, const char* magic, int version,
                        const std::string& hardware) {
  out << magic << ' ' << version << "\n";
  out << "hw " << hardware << "\n";
}

TableHeader read_table_header(std::istream& in, const char* magic,
                              int version, const std::string& hardware) {
  std::string word;
  int got = 0;
  if (!(in >> word >> got) || word != magic || got != version) {
    return TableHeader::Corrupt;
  }
  std::string hw;
  if (!(in >> word >> hw) || word != "hw") {
    return TableHeader::Corrupt;
  }
  in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  return hw == hardware ? TableHeader::Ok : TableHeader::OtherHardware;
}

bool save_table(const std::string& path, const char* magic, int version,
                const std::string& hardware,
                const std::function<void(std::ostream&)>& body) {
  FileLock lock(path);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return false;
    }
    write_table_header(out, magic, version, hardware);
    body(out);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

} // namespace iatf
