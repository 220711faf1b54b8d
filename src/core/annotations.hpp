#pragma once

#include <condition_variable>
#include <mutex>

/// Clang thread-safety annotations (-Wthread-safety) plus the annotated
/// locking primitives the repo's concurrent substrate is built on.
///
/// The lock discipline that keeps the parallel width search and circuit
/// sweeps correct — "queue_ and stop_ only under mu_", "the flat adjacency
/// is rebuilt only under flat_mu_" — used to live in comments. These macros
/// turn it into compiler-checked contracts: a member declared
/// FPR_GUARDED_BY(mu_) cannot be read or written without holding mu_, and a
/// function declared FPR_REQUIRES(mu_) cannot be called without it, or the
/// clang CI job (-Wthread-safety -Werror, see .github/workflows/ci.yml)
/// fails the build. Off clang every macro expands to nothing, so gcc builds
/// are unaffected.
///
/// std::mutex itself carries no capability attributes under libstdc++, so
/// the analysis cannot see through it; fpr::Mutex / fpr::MutexLock /
/// fpr::CondVar are the thin annotated equivalents. Use them for any new
/// shared state. The wrappers add no overhead beyond
/// std::condition_variable_any's generic-lock support, which is off the
/// routing hot path (locks guard pool scheduling and one-time adjacency
/// builds, never the Dijkstra inner loop).
///
/// Header-only and layer-free like core/contract.hpp: fpr_graph uses it
/// without linking fpr_core.

#if defined(__clang__) && (!defined(SWIG))
#define FPR_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define FPR_THREAD_ANNOTATION(x)  // no-op off clang
#endif

/// Declares a type to be a lockable capability ("mutex").
#define FPR_CAPABILITY(x) FPR_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type that acquires in its constructor, releases in its
/// destructor.
#define FPR_SCOPED_CAPABILITY FPR_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the given mutex.
#define FPR_GUARDED_BY(x) FPR_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by the given mutex.
#define FPR_PT_GUARDED_BY(x) FPR_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function callable only while holding the given mutex(es).
#define FPR_REQUIRES(...) FPR_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function that acquires the mutex(es) and returns holding them.
#define FPR_ACQUIRE(...) FPR_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function that releases the held mutex(es).
#define FPR_RELEASE(...) FPR_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function that acquires the mutex iff it returns `ret`.
#define FPR_TRY_ACQUIRE(ret, ...) FPR_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

/// Function that must NOT be called while holding the mutex(es) (deadlock
/// guard for non-reentrant locks).
#define FPR_EXCLUDES(...) FPR_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Escape hatch for protocols the static analysis cannot express (e.g. the
/// release/acquire publication of Graph's flat adjacency). Every use carries a
/// comment justifying why the access is safe.
#define FPR_NO_THREAD_SAFETY_ANALYSIS FPR_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace fpr {

/// std::mutex with capability annotations.
class FPR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() FPR_ACQUIRE() { mu_.lock(); }
  void unlock() FPR_RELEASE() { mu_.unlock(); }
  bool try_lock() FPR_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock over fpr::Mutex (the std::lock_guard / std::unique_lock
/// equivalent the analysis can follow).
class FPR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) FPR_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() FPR_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over fpr::Mutex. Waits take the Mutex itself (not a
/// separate lock object) so FPR_REQUIRES expresses the precondition the
/// std::unique_lock pattern left implicit: the caller holds the mutex, and
/// still holds it when the wait returns.
class CondVar {
 public:
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  void wait(Mutex& mu) FPR_REQUIRES(mu) { cv_.wait(mu); }

  template <class Predicate>
  void wait(Mutex& mu, Predicate stop_waiting) FPR_REQUIRES(mu) {
    while (!stop_waiting()) cv_.wait(mu);
  }

  template <class Rep, class Period>
  void wait_for(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout) FPR_REQUIRES(mu) {
    cv_.wait_for(mu, timeout);
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace fpr
