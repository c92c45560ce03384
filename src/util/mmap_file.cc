#include "util/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <utility>

#include "util/fs.h"

namespace anmat {

Result<MmapFile> MmapFile::Open(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return IoErrorFromErrno("cannot open file: " + path);
  }
  MmapFile out;
  if (S_ISFIFO(st.st_mode)) {
    Result<std::string> piped = ReadFileToString(path);
    if (!piped.ok()) return Status::IoError(piped.status().message());
    out.piped_ = std::move(piped).value();
    return out;
  }
  if (S_ISDIR(st.st_mode)) {
    return Status::IoError("cannot read file: " + path + ": is a directory");
  }
  if (!S_ISREG(st.st_mode)) {
    return Status::IoError("cannot read file: " + path +
                           ": not a regular file or pipe");
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return IoErrorFromErrno("cannot open file: " + path);
  if (::fstat(fd, &st) != 0) {
    Status s = IoErrorFromErrno("cannot stat file: " + path);
    ::close(fd);
    return s;
  }
  out.size_ = static_cast<size_t>(st.st_size);
  if (out.size_ > 0) {
    void* p = ::mmap(nullptr, out.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      Status s = IoErrorFromErrno("cannot mmap file: " + path);
      ::close(fd);
      return s;
    }
    // Whole-file sequential parse: tell the kernel to read ahead.
    ::madvise(p, out.size_, MADV_SEQUENTIAL);
    out.data_ = p;
  }
  ::close(fd);  // the mapping keeps its own reference
  return out;
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    piped_ = std::move(other.piped_);
  }
  return *this;
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

std::shared_ptr<const MmapFile> MmapFile::Share() && {
  return std::make_shared<const MmapFile>(std::move(*this));
}

}  // namespace anmat
