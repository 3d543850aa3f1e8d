#pragma once

#include <sys/mman.h>

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

#include "spmd/sanitizer/access.hpp"

namespace kreg::spmd {

namespace detail {

/// Shared accounting record between a Device and its live buffers. Buffers
/// may outlive neither the ledger nor their storage, but keeping the ledger
/// in a shared_ptr makes destruction order forgiving: a buffer destroyed
/// after its Device simply returns bytes to a ledger nobody reads again.
struct MemoryLedger {
  std::size_t capacity_bytes = 0;
  std::size_t allocated_bytes = 0;
  std::size_t peak_bytes = 0;
  std::size_t allocation_count = 0;

  std::size_t available() const noexcept {
    return capacity_bytes - allocated_bytes;
  }
};

/// Global-memory allocations of at least this many bytes get their own
/// anonymous mapping (see allocate_storage).
inline constexpr std::size_t kMappedStorageBytes = std::size_t{1} << 20;

/// Frees DeviceBuffer storage the way allocate_storage obtained it:
/// munmap for a mapping (`mapped_bytes` != 0), delete[] otherwise.
template <class T>
struct StorageDeleter {
  std::size_t mapped_bytes = 0;

  void operator()(T* p) const noexcept {
    if (mapped_bytes != 0) {
      ::munmap(p, mapped_bytes);
    } else {
      delete[] p;
    }
  }
};

template <class T>
using Storage = std::unique_ptr<T[], StorageDeleter<T>>;

/// Zero-initialized storage for `count` elements. A buffer of 1 MiB or more
/// gets its own anonymous mapping — zeroed by the kernel and advised onto
/// huge pages — so freeing it hands its pages straight back and the
/// process's resident set follows the live device bytes. Through the heap,
/// glibc raises its mmap threshold after the first large free and later
/// large buffers fragment the heap instead. Smaller buffers, non-trivial
/// element types and AddressSanitizer builds (whose red zones guard heap
/// blocks only) use new T[]().
template <class T>
Storage<T> allocate_storage(std::size_t count) {
#ifndef __SANITIZE_ADDRESS__
  if constexpr (std::is_trivially_default_constructible_v<T> &&
                std::is_trivially_destructible_v<T>) {
    const std::size_t bytes = count * sizeof(T);
    if (bytes >= kMappedStorageBytes) {
      void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) {
        throw std::bad_alloc();
      }
#ifdef MADV_HUGEPAGE
      (void)::madvise(p, bytes, MADV_HUGEPAGE);
#endif
      return Storage<T>(static_cast<T*>(p), StorageDeleter<T>{bytes});
    }
  }
#endif
  return Storage<T>(new T[count]());
}

}  // namespace detail

/// RAII handle to a global-memory allocation on a simulated device.
///
/// Move-only, like a cudaMalloc'd pointer wrapped in a unique owner. The
/// bytes are charged against the owning device's ledger on allocation and
/// returned on destruction. Element access is host-visible (the simulator
/// has a unified address space), but library code treats the contents as
/// device-resident and moves data with Device::copy_to_device /
/// copy_to_host to keep the CUDA structure of the algorithms explicit.
///
/// On a sanitizer-enabled device each buffer carries an AllocShadow:
/// `view()` returns a MemView whose accesses run memcheck (bounds,
/// moved-from) and initcheck (valid bits), and the shadow's liveness at
/// device teardown is the leak signal. The raw span()/data()/operator[]
/// escape hatches stay unchecked, matching host pointer arithmetic.
template <class T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  DeviceBuffer(DeviceBuffer&& other) noexcept {
    swap(other);
    // The source keeps its sanitizer connection (but not the shadow: the
    // allocation's liveness moved with the storage) so a later access can
    // be reported as use-after-move.
    other.state_ = state_;
    other.moved_from_ = true;
  }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      release();
      moved_from_ = false;
      swap(other);
      other.state_ = state_;
      other.moved_from_ = true;
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  ~DeviceBuffer() { release(); }

  std::size_t size() const noexcept { return count_; }
  std::size_t size_bytes() const noexcept { return count_ * sizeof(T); }
  bool empty() const noexcept { return count_ == 0; }

  T* data() noexcept { return storage_.get(); }
  const T* data() const noexcept { return storage_.get(); }

  std::span<T> span() noexcept { return {storage_.get(), count_}; }
  std::span<const T> span() const noexcept { return {storage_.get(), count_}; }

  /// Checked window over the allocation. On a sanitizer-enabled device
  /// every indexed access is bounds-checked, reads run the initcheck
  /// valid-bit lookup, and calling view() on a moved-from buffer reports a
  /// memcheck finding; on a plain device this is a raw span with proxies.
  MemView<T> view() {
    ensure_not_moved_from();
    return MemView<T>(storage_.get(), count_, shadow_.get());
  }
  MemView<const T> view() const {
    ensure_not_moved_from();
    return MemView<const T>(storage_.get(), count_, shadow_.get());
  }

  T& operator[](std::size_t i) noexcept {
    assert(i < count_);
    if (shadow_) {
      shadow_->mark_valid(i);  // host-side writes count as initialization
    }
    return storage_[i];
  }
  const T& operator[](std::size_t i) const noexcept {
    assert(i < count_);
    return storage_[i];
  }

 private:
  friend class Device;

  DeviceBuffer(std::shared_ptr<detail::MemoryLedger> ledger, std::size_t count)
      : ledger_(std::move(ledger)),
        storage_(detail::allocate_storage<T>(count)),
        count_(count) {}

  void ensure_not_moved_from() const {
    if (!moved_from_ || state_ == nullptr) {
      return;
    }
    SanitizerReport report;
    report.kind = HazardKind::kOob;
    report.kernel = state_->current_kernel();
    report.object = "<moved-from buffer>";
    report.message = "use of a moved-from DeviceBuffer";
    state_->deliver(report);
  }

  void release() noexcept {
    if (ledger_) {
      ledger_->allocated_bytes -= size_bytes();
      ledger_.reset();
    }
    storage_.reset();
    shadow_.reset();
    count_ = 0;
  }

  void swap(DeviceBuffer& other) noexcept {
    std::swap(ledger_, other.ledger_);
    std::swap(storage_, other.storage_);
    std::swap(count_, other.count_);
    std::swap(shadow_, other.shadow_);
    std::swap(state_, other.state_);
    std::swap(moved_from_, other.moved_from_);
  }

  std::shared_ptr<detail::MemoryLedger> ledger_;
  detail::Storage<T> storage_;
  std::size_t count_ = 0;
  std::shared_ptr<detail::AllocShadow> shadow_;
  std::shared_ptr<detail::SanitizerState> state_;
  bool moved_from_ = false;
};

/// RAII handle to a constant-memory allocation: read-only from kernels,
/// sized against the device's constant cache working set (8 KB on the
/// paper's hardware — the limit that caps the bandwidth grid at 2,048
/// single-precision values).
template <class T>
class ConstantBuffer {
 public:
  ConstantBuffer() = default;

  ConstantBuffer(ConstantBuffer&& other) noexcept { swap(other); }
  ConstantBuffer& operator=(ConstantBuffer&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }
  ConstantBuffer(const ConstantBuffer&) = delete;
  ConstantBuffer& operator=(const ConstantBuffer&) = delete;

  ~ConstantBuffer() { release(); }

  std::size_t size() const noexcept { return count_; }
  std::size_t size_bytes() const noexcept { return count_ * sizeof(T); }

  const T* data() const noexcept { return storage_.get(); }
  std::span<const T> span() const noexcept { return {storage_.get(), count_}; }

  /// Bounds-checked read-only window (constant memory is fully written at
  /// upload, so only memcheck applies).
  MemView<const T> view() const {
    return MemView<const T>(storage_.get(), count_, shadow_.get());
  }

  const T& operator[](std::size_t i) const noexcept {
    assert(i < count_);
    return storage_[i];
  }

 private:
  friend class Device;

  ConstantBuffer(std::shared_ptr<detail::MemoryLedger> ledger,
                 std::size_t count)
      : ledger_(std::move(ledger)), storage_(new T[count]()), count_(count) {}

  /// Device fills the contents at upload time; kernels only read.
  std::span<T> mutable_span() noexcept { return {storage_.get(), count_}; }

  void release() noexcept {
    if (ledger_) {
      ledger_->allocated_bytes -= size_bytes();
      ledger_.reset();
    }
    storage_.reset();
    shadow_.reset();
    count_ = 0;
  }

  void swap(ConstantBuffer& other) noexcept {
    std::swap(ledger_, other.ledger_);
    std::swap(storage_, other.storage_);
    std::swap(count_, other.count_);
    std::swap(shadow_, other.shadow_);
  }

  std::shared_ptr<detail::MemoryLedger> ledger_;
  std::unique_ptr<T[]> storage_;
  std::size_t count_ = 0;
  std::shared_ptr<detail::AllocShadow> shadow_;
};

}  // namespace kreg::spmd
