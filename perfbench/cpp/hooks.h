// Process-wide hooks the driftbench binaries install (hooks.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

/// fsync() calls made by the process since start.
std::uint64_t fsync_calls();

/// Keeps files under `dir` in process memory, as on tmpfs (see hooks.cpp);
/// the directory need not exist.
void set_memory_dir(const std::string& dir);
/// Size of an in-memory file; 0 when absent.
std::size_t memory_file_size(const std::string& path);
void memory_file_remove(const std::string& path);

}  // namespace perfbench
