// Synthetic host-memory model behind the DMA engine.
//
// The paper's NIC talks to real host DRAM over PCIe; we substitute a
// deterministic store: writes are retained, reads return written bytes or
// a deterministic pseudo-random fill for untouched addresses (so DMA reads
// always produce stable, checkable data without pre-populating gigabytes).
//
// The host address map has two regions:
//   [kAllocBase, kRxRingBase)  the bump allocator: TX frames and
//                              descriptors, the KVS value log.  Every DMA
//                              read address comes from here.
//   [kRxRingBase, +kRxRingBytes)  the RX ring the DMA engine writes
//                              host-bound packets into.  A packet that
//                              would cross the ring's end starts again at
//                              its base, so delivery touches a fixed set
//                              of pages however long a run lasts.  Nothing
//                              reads the ring back, so the wrap is
//                              unobservable.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

namespace panic::engines {

class HostMemory {
 public:
  static constexpr std::uint64_t kAllocBase = std::uint64_t{1} << 20;
  static constexpr std::uint64_t kRxRingBase = std::uint64_t{1} << 40;
  /// Larger than any frame the scenario language can build (an IPv4
  /// total length caps them below 64 KiB plus the Ethernet header).
  static constexpr std::uint64_t kRxRingBytes = std::uint64_t{1} << 20;

  void write(std::uint64_t addr, std::span<const std::uint8_t> data);
  std::vector<std::uint8_t> read(std::uint64_t addr, std::uint32_t len) const;
  /// Reads into an existing buffer (resized to `len`), reusing its
  /// capacity — the DMA engine fills recycled completion messages with it.
  void read_into(std::uint64_t addr, std::uint32_t len,
                 std::vector<std::uint8_t>& out) const;

  /// Bump allocator for TX frames, descriptors and KVS values: 64-byte
  /// aligned, counting up from kAllocBase, never into the RX ring.
  std::uint64_t allocate(std::uint32_t len);

  /// The RX-ring address the next host-bound packet of `len` bytes is
  /// written at (64-byte aligned slots, wrapping to the ring base).  A
  /// packet longer than the ring would run past its end from the base;
  /// nothing lives there.
  std::uint64_t rx_slot(std::size_t len);

  /// Every byte ever written, ring overwrites included.
  std::size_t bytes_written() const { return bytes_written_; }
  /// Pages touched so far; tests use it to check memory stays bounded.
  std::size_t pages_resident() const { return store_.size(); }

 private:
  static constexpr std::size_t kPageShift = 12;
  static constexpr std::size_t kPageSize = 1u << kPageShift;
  static constexpr std::size_t kWordBytes = 64;  ///< bytes per bitmap word

  /// Sparse page: raw bytes plus a written-bitmap, one bit per byte, so
  /// untouched bytes keep reading as the deterministic fill.  Only the
  /// bitmap is zeroed on creation; `data` is read only where a bit is set.
  struct Page {
    Page() : written{} {}
    std::array<std::uint8_t, kPageSize> data;
    std::array<std::uint64_t, kPageSize / kWordBytes> written;
  };

  static std::uint8_t deterministic_byte(std::uint64_t addr);

  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> store_;  // by page
  std::uint64_t next_alloc_ = kAllocBase;
  std::uint64_t next_rx_ = kRxRingBase;
  std::size_t bytes_written_ = 0;
};

}  // namespace panic::engines
