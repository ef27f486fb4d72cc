#include "alloc_counter.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

// One slot per thread that ever allocated while counting was on. Only the
// owning thread writes its slot; slots are never released, so a reader
// can sum them while threads come and go. Threads beyond the table share
// the overflow slot through atomic read-modify-write.
struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> bytes{0};
};

constexpr int kMaxSlots = 4096;
Slot g_slots[kMaxSlots];
Slot g_overflow;
std::atomic<int> g_next_slot{0};
std::atomic<bool> g_enabled{false};
thread_local Slot* t_slot = nullptr;
thread_local bool t_shared = false;

inline void Count(std::size_t size) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  if (t_slot == nullptr) {
    const int i = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    t_shared = i >= kMaxSlots;
    t_slot = t_shared ? &g_overflow : &g_slots[i];
  }
  if (t_shared) {
    t_slot->count.fetch_add(1, std::memory_order_relaxed);
    t_slot->bytes.fetch_add(size, std::memory_order_relaxed);
    return;
  }
  t_slot->count.store(t_slot->count.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  t_slot->bytes.store(t_slot->bytes.load(std::memory_order_relaxed) + size,
                      std::memory_order_relaxed);
}

void* Allocate(std::size_t size) {
  Count(size);
  for (;;) {
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  Count(size);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  for (;;) {
    if (void* p = std::aligned_alloc(a, rounded)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void EnableAllocCounting() {
  g_enabled.store(true, std::memory_order_relaxed);
}

AllocTotals ReadAllocTotals() {
  AllocTotals totals;
  const int used = std::min(g_next_slot.load(std::memory_order_relaxed),
                            kMaxSlots);
  for (int i = 0; i < used; ++i) {
    totals.count += g_slots[i].count.load(std::memory_order_relaxed);
    totals.bytes += g_slots[i].bytes.load(std::memory_order_relaxed);
  }
  totals.count += g_overflow.count.load(std::memory_order_relaxed);
  totals.bytes += g_overflow.bytes.load(std::memory_order_relaxed);
  return totals;
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::Allocate(size); }
void* operator new[](std::size_t size) { return perfbench::Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::AllocateAligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return perfbench::AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return perfbench::AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
