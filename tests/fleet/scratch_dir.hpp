// Scratch directories for the fleet tests. ctest runs every test case as
// its own process, in parallel, so each process gets its own root
// (<tmp>/ftmc_fleet_test_<pid>): two cases can never wipe each other's
// journals. The root is removed when the process exits.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace ftmc::fleet {

/// A fresh, empty directory `leaf` under this process's scratch root.
[[nodiscard]] inline std::string scratch_dir(const std::string& leaf) {
  struct Root {
    Root() = default;
    Root(const Root&) = delete;
    Root& operator=(const Root&) = delete;
    ~Root() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
    std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("ftmc_fleet_test_" + std::to_string(::getpid()));
  };
  static const Root root;
  const std::filesystem::path dir = root.path / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace ftmc::fleet
