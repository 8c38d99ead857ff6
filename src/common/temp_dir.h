#ifndef DGF_COMMON_TEMP_DIR_H_
#define DGF_COMMON_TEMP_DIR_H_

#include <filesystem>
#include <string>

namespace dgf {

/// A scratch directory that is removed, contents and all, when the guard is
/// destroyed. Hold it as the first member of a world struct so the directory
/// outlives (and is removed after) every handle into it. Move-only: a
/// moved-from or default-constructed guard owns nothing.
class TempDir {
 public:
  TempDir() = default;
  /// `<system temp dir>/<prefix>_<pid>_<n>`, where n counts up per process
  /// so repeated or concurrent worlds never share a directory. A leftover
  /// of the same name (from a crashed earlier process) is cleared first;
  /// the directory itself is not created.
  explicit TempDir(const std::string& prefix);
  ~TempDir();

  TempDir(TempDir&& other) noexcept;
  TempDir& operator=(TempDir&& other) noexcept;
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  std::string string() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace dgf

#endif  // DGF_COMMON_TEMP_DIR_H_
