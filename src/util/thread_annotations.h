// Clang Thread Safety Analysis attribute macros.
//
// Under clang (`-Wthread-safety`, promoted to an error by the CI
// clang-thread-safety job and by -DANMAT_THREAD_SAFETY=ON) these expand to
// the capability attributes, and every `ANMAT_GUARDED_BY(mu)` field is
// compile-checked: touching it without holding `mu` is a build error. Under
// GCC they expand to nothing, so annotated code builds identically there.
//
// Use the wrappers in util/mutex.h (anmat::Mutex and its scoped lock)
// rather than std::mutex directly — the analysis needs a mutex type that
// itself carries the capability attribute, which libstdc++'s is not.

#ifndef ANMAT_UTIL_THREAD_ANNOTATIONS_H_
#define ANMAT_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define ANMAT_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define ANMAT_THREAD_ANNOTATION(x)
#endif

/// On a type: instances are capabilities (lockable things).
#define ANMAT_CAPABILITY(x) ANMAT_THREAD_ANNOTATION(capability(x))

/// On a type: an RAII object that acquires a capability for its lifetime.
#define ANMAT_SCOPED_CAPABILITY ANMAT_THREAD_ANNOTATION(scoped_lockable)

/// On a data member: may only be read or written while holding `x`.
#define ANMAT_GUARDED_BY(x) ANMAT_THREAD_ANNOTATION(guarded_by(x))

/// On a pointer member: the pointee (not the pointer) is guarded by `x`.
#define ANMAT_PT_GUARDED_BY(x) ANMAT_THREAD_ANNOTATION(pt_guarded_by(x))

/// On a function: the caller must hold `...` exclusively.
#define ANMAT_REQUIRES(...) \
  ANMAT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// On a function: acquires `...` exclusively and does not release it.
#define ANMAT_ACQUIRE(...) \
  ANMAT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// On a function: releases `...` (held exclusively).
#define ANMAT_RELEASE(...) \
  ANMAT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// On a function: the caller must NOT hold `...` (deadlock guard for
/// functions that acquire it themselves).
#define ANMAT_EXCLUDES(...) \
  ANMAT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// On a function: returns a reference to the mutex guarding this object.
#define ANMAT_RETURN_CAPABILITY(x) ANMAT_THREAD_ANNOTATION(lock_returned(x))

/// On a function: opt this function out of the analysis. Reserve for
/// documented benign races and patterns the analysis cannot express; every
/// use must say why in a comment.
#define ANMAT_NO_THREAD_SAFETY_ANALYSIS \
  ANMAT_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // ANMAT_UTIL_THREAD_ANNOTATIONS_H_
