#ifndef ANMAT_UTIL_MMAP_FILE_H_
#define ANMAT_UTIL_MMAP_FILE_H_

/// \file mmap_file.h
/// RAII read-only view of a whole file for zero-copy ingest.
///
/// `MmapFile::Open` maps a regular file `PROT_READ`/`MAP_PRIVATE` and hands
/// out a `std::string_view` over the mapping. The CSV reader parses cells
/// straight out of that view — no slurp, no per-cell copy — and the
/// relation's arena adopts the handle (via the `shared_ptr` returned by
/// `Share`) so cell views outlive the `MmapFile` itself.
///
/// The kind of file is decided with stat(2) before anything is opened. A
/// pipe or FIFO cannot be mapped: it is opened once and read to EOF into
/// memory the handle owns (opening it twice would lose what the first open
/// consumed). Directories, devices and sockets fail with an IoError naming
/// the path and are never opened, so a path like /dev/zero cannot make a
/// reader run forever.
///
/// Empty files map nothing (mmap of length 0 is an error on Linux) and
/// expose an empty view; that is still a successful open. Errors carry
/// `errno` text via the usual `IoError` path.

#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

namespace anmat {

/// \brief A read-only mapped (or, for a pipe, read) file. Move-only handle;
/// `Share()` converts to shared ownership for adoption by an `Arena`.
class MmapFile {
 public:
  /// Maps the regular file `path`, or reads the pipe or FIFO `path` to EOF.
  /// Fails with IoError for a missing or unreadable path and for every
  /// other kind of file.
  static Result<MmapFile> Open(const std::string& path);

  MmapFile() = default;
  MmapFile(MmapFile&& other) noexcept { *this = std::move(other); }
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  ~MmapFile();

  /// The file's bytes (empty for an empty file).
  std::string_view view() const {
    if (data_ == nullptr) return piped_;
    return std::string_view(static_cast<const char*>(data_), size_);
  }

  /// Moves this handle into a shared one whose destructor unmaps; the
  /// contained view stays valid as long as any copy lives. `this` is left
  /// empty.
  std::shared_ptr<const MmapFile> Share() &&;

 private:
  void* data_ = nullptr;  ///< nullptr for an empty mapping or a pipe
  size_t size_ = 0;
  std::string piped_;     ///< a pipe's bytes, read once at open
};

}  // namespace anmat

#endif  // ANMAT_UTIL_MMAP_FILE_H_
