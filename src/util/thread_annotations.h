// Clang -Wthread-safety capability annotations (DESIGN.md §12).
//
// The macros expand to clang's thread-safety attributes when the analysis
// is available and to nothing elsewhere (gcc builds them out entirely), so
// annotated code stays portable. The Werror CI lane compiles the tree with
// clang and -Wthread-safety, turning every annotation into a checked
// contract: a read of a DCPIM_GUARDED_BY field without its capability held
// is a build error, not a code-review hope.
//
// Annotate with the wrapper types in util/mutex.h — libstdc++'s std::mutex
// carries no capability attribute, so annotating against it directly would
// check nothing.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#define DCPIM_THREAD_ANNOTATION_IMPL(x) __attribute__((x))
#else
#define DCPIM_THREAD_ANNOTATION_IMPL(x)  // no-op outside clang
#endif

/// Marks a type as a capability (a lock); `x` names it in diagnostics.
#define DCPIM_CAPABILITY(x) DCPIM_THREAD_ANNOTATION_IMPL(capability(x))

/// Marks an RAII type that acquires in its ctor and releases in its dtor.
#define DCPIM_SCOPED_CAPABILITY DCPIM_THREAD_ANNOTATION_IMPL(scoped_lockable)

/// Data member readable/writable only with the capability held.
#define DCPIM_GUARDED_BY(x) DCPIM_THREAD_ANNOTATION_IMPL(guarded_by(x))

/// Function acquires the capability (and does not release it).
#define DCPIM_ACQUIRE(...) \
  DCPIM_THREAD_ANNOTATION_IMPL(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define DCPIM_RELEASE(...) \
  DCPIM_THREAD_ANNOTATION_IMPL(release_capability(__VA_ARGS__))
