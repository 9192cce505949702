// Process-wide hooks of the driftbench binaries.
//
// Counting operator new: feeds driftsync's alloc_stats counters, which the
// Node's msg_path_allocs and the bench's CSA probe read.  malloc/free plus
// one relaxed atomic bump, as in the repository's own counting hook.
//
// An in-memory checkpoint directory.  The Node checkpoints after every own
// event: fopen a temporary file, fwrite the image, fflush, fsync, fclose,
// rename it over the previous image.  The benchmark may write only inside
// its checkout, and a checkout may sit on a shared ext4 disk, where that
// sequence times the disk and its journal rather than the program: one
// fsync costs ~0.25 ms with a millisecond tail, a rename over a file
// starts a writeback, and the create/unlink churn alone moved node-ingest
// throughput by 25% from run to run.  So files under the directory given
// to set_memory_dir() live in this process's memory, as on tmpfs:
//   * fopen(..., "w...") returns an open_memstream stream, fopen(..., "r...")
//     an fmemopen stream over the stored bytes (ENOENT when absent);
//   * fwrite, fflush and fclose are libc's own, unchanged;
//   * fsync counts the call and returns success without flushing, which is
//     what it does on tmpfs;
//   * rename moves the closed stream's bytes to the new name.
// The checkpoint encode and every stdio call still run for real;
// runtime.fsyncs_per_dgram reports the sync calls, so a change that drops
// or adds a sync still shows.  Paths outside the directory go to libc.
#include <dlfcn.h>
#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <string>

#include "common/alloc_stats.h"
#include "hooks.h"

namespace {

std::atomic<std::uint64_t> g_fsyncs{0};

struct HookMarker {
  HookMarker() { driftsync::alloc_stats::set_hooked(); }
};
const HookMarker hook_marker;

void* counted(std::size_t size) {
  driftsync::alloc_stats::note(size);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  driftsync::alloc_stats::note(size);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

/// One in-memory file.  Buffers come from malloc (open_memstream's own),
/// never from operator new, so the Node's allocation counters see no more
/// than they would on tmpfs.
struct MemFile {
  char path[512] = {};  ///< Empty = free slot.
  char* buf = nullptr;  ///< Written by open_memstream on fflush/fclose.
  std::size_t size = 0;
};

struct MemoryDir {
  std::mutex mu;
  char prefix[512] = {};  ///< "<dir>/"; empty = disabled.
  MemFile files[8];       ///< A checkpoint and its temporary, with room.

  bool owns(const char* path) const {
    return prefix[0] != '\0' && std::strncmp(path, prefix, std::strlen(prefix)) == 0;
  }
  MemFile* find(const char* path) {
    for (MemFile& f : files) {
      if (f.path[0] != '\0' && std::strcmp(f.path, path) == 0) return &f;
    }
    return nullptr;
  }
  void drop(MemFile& f) {
    std::free(f.buf);
    f = MemFile{};
  }
  MemFile* create(const char* path) {
    if (MemFile* old = find(path)) drop(*old);
    for (MemFile& f : files) {
      if (f.path[0] == '\0') {
        std::snprintf(f.path, sizeof(f.path), "%s", path);
        return &f;
      }
    }
    return nullptr;
  }
};

MemoryDir g_memdir;

template <typename Fn>
Fn* next_symbol(const char* name) {
  return reinterpret_cast<Fn*>(dlsym(RTLD_NEXT, name));
}

FILE* memory_open(const char* path, const char* mode) {
  const std::lock_guard<std::mutex> lock(g_memdir.mu);
  if (mode[0] == 'w') {
    MemFile* f = g_memdir.create(path);
    if (f == nullptr) {
      errno = ENOSPC;
      return nullptr;
    }
    return open_memstream(&f->buf, &f->size);
  }
  MemFile* f = g_memdir.find(path);
  if (mode[0] != 'r' || f == nullptr || f->size == 0) {
    errno = mode[0] == 'r' ? ENOENT : EINVAL;
    return nullptr;
  }
  return fmemopen(f->buf, f->size, mode);
}

}  // namespace

namespace perfbench {

std::uint64_t fsync_calls() { return g_fsyncs.load(std::memory_order_relaxed); }

void set_memory_dir(const std::string& dir) {
  const std::lock_guard<std::mutex> lock(g_memdir.mu);
  std::snprintf(g_memdir.prefix, sizeof(g_memdir.prefix), "%s/", dir.c_str());
}

std::size_t memory_file_size(const std::string& path) {
  const std::lock_guard<std::mutex> lock(g_memdir.mu);
  const MemFile* f = g_memdir.find(path.c_str());
  return f == nullptr ? 0 : f->size;
}

void memory_file_remove(const std::string& path) {
  const std::lock_guard<std::mutex> lock(g_memdir.mu);
  if (MemFile* f = g_memdir.find(path.c_str())) g_memdir.drop(*f);
}

}  // namespace perfbench

extern "C" FILE* fopen(const char* path, const char* mode) {
  if (g_memdir.owns(path)) return memory_open(path, mode);
  static auto* real = next_symbol<FILE*(const char*, const char*)>("fopen");
  return real(path, mode);
}

extern "C" FILE* fopen64(const char* path, const char* mode) { return fopen(path, mode); }

extern "C" int fsync(int fd) {
  (void)fd;
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return 0;
}

extern "C" int rename(const char* from, const char* to) noexcept {
  if (!g_memdir.owns(from) || !g_memdir.owns(to)) {
    return ::renameat(AT_FDCWD, from, AT_FDCWD, to);
  }
  // The Node closes the stream before renaming it, so buf/size are final.
  const std::lock_guard<std::mutex> lock(g_memdir.mu);
  MemFile* src = g_memdir.find(from);
  if (src == nullptr) {
    errno = ENOENT;
    return -1;
  }
  if (MemFile* old = g_memdir.find(to)) g_memdir.drop(*old);
  std::snprintf(src->path, sizeof(src->path), "%s", to);
  return 0;
}

void* operator new(std::size_t n) { return or_throw(counted(n)); }
void* operator new[](std::size_t n) { return or_throw(counted(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted(n); }
void* operator new(std::size_t n, std::align_val_t a) { return or_throw(counted_aligned(n, a)); }
void* operator new[](std::size_t n, std::align_val_t a) { return or_throw(counted_aligned(n, a)); }
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_aligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
