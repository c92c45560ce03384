// Annotated mutex wrappers for Clang Thread Safety Analysis.
//
// libstdc++'s std::mutex carries no capability attribute, so the analysis
// cannot check code that uses it directly. These wrappers are zero-cost
// shims over the std types that add the attributes; all lock-holding
// classes in src/ use them, with guarded fields declared
// `ANMAT_GUARDED_BY(mu_)` (see util/thread_annotations.h).
//
//   Mutex mu_;
//   std::vector<int> items_ ANMAT_GUARDED_BY(mu_);
//   ...
//   MutexLock lock(&mu_);      // scoped exclusive
//   items_.push_back(1);       // OK: mu_ held
//
// CondVar works with Mutex and requires the caller to hold it across
// Wait, matching std::condition_variable's contract.

#ifndef ANMAT_UTIL_MUTEX_H_
#define ANMAT_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace anmat {

class ANMAT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ANMAT_ACQUIRE() { mu_.lock(); }
  void Unlock() ANMAT_RELEASE() { mu_.unlock(); }

 private:
  friend class MutexLock;
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped exclusive lock over Mutex.
class ANMAT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ANMAT_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() ANMAT_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable for Mutex. Wait requires the mutex held; use an
/// explicit `while (!predicate()) cv.Wait(&mu);` loop — the predicate
/// overloads of std::condition_variable hide the lock context from the
/// analysis inside a lambda.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) ANMAT_REQUIRES(mu) {
    // Adopt the already-held mutex for the duration of the wait; release()
    // afterwards so the unique_lock's destructor leaves it held, matching
    // the annotation (held on entry, held on return).
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace anmat

#endif  // ANMAT_UTIL_MUTEX_H_
