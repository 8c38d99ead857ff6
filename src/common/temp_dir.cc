#include "common/temp_dir.h"

#include <unistd.h>

#include <atomic>
#include <utility>

namespace dgf {

TempDir::TempDir(const std::string& prefix) {
  static std::atomic<int> counter{0};
  path_ = std::filesystem::temp_directory_path() /
          (prefix + "_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++));
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

TempDir::~TempDir() {
  if (path_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

TempDir::TempDir(TempDir&& other) noexcept
    : path_(std::exchange(other.path_, {})) {}

TempDir& TempDir::operator=(TempDir&& other) noexcept {
  std::swap(path_, other.path_);
  return *this;
}

}  // namespace dgf
