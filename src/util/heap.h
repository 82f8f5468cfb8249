// Handing freed heap back to the operating system.
#ifndef DYNDEX_UTIL_HEAP_H_
#define DYNDEX_UTIL_HEAP_H_

namespace dyndex {

/// Returns the allocator's free pages, in every malloc arena, to the
/// operating system. Memory freed on a thread stays in that thread's arena,
/// so without this a background build thread keeps the high-water mark of
/// the largest build it ran resident after the build is gone. A no-op where
/// the C library has no such call.
void ReleaseFreeHeap();

}  // namespace dyndex

#endif  // DYNDEX_UTIL_HEAP_H_
