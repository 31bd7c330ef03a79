#include "iatf/common/error.hpp"

#include <new>
#include <sstream>

namespace iatf {

Status status_of(const std::exception_ptr& p) noexcept {
  try {
    std::rethrow_exception(p);
  } catch (const Error& e) {
    return e.status();
  } catch (const std::bad_alloc&) {
    return Status::AllocFailure;
  } catch (...) {
    return Status::Internal;
  }
}

namespace detail {

void throw_error(const char* file, int line, const std::string& message,
                 Status status) {
  std::ostringstream os;
  os << "iatf: " << message << " (" << file << ":" << line << ")";
  throw Error(os.str(), status);
}

} // namespace detail
} // namespace iatf
