#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace crocco::testing {

/// A directory under the system temp directory private to this process,
/// created empty and removed with the object. Two build trees running
/// ctest at once, a test beside its _mt variant, or a bench beside ctest
/// never share one.
struct TempDir {
    explicit TempDir(const std::string& name)
        : path((std::filesystem::temp_directory_path() /
                (name + "_" + std::to_string(::getpid())))
                   .string()) {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    std::string path;
};

} // namespace crocco::testing
