// The consumer receive path: stream buffers are sized by what arrives.
//
// A consumer's receive buffer grows at delivery to the largest real payload
// it has seen, so modeled elements (synthetic or header-only) cost no
// consumer heap however large they are declared, and handlers only ever see
// bytes that were actually delivered. This executable counts heap bytes
// with its own global allocator hook (as bench/micro_simcore.cpp counts
// allocations), so the hook sees only these tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "common/machine_helpers.hpp"
#include "core/channel.hpp"
#include "core/stream.hpp"

namespace {
std::uint64_t g_heap_bytes = 0;  ///< bytes requested from operator new
}  // namespace

void* operator new(std::size_t size) {
  g_heap_bytes += size;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_bytes += size;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_bytes += size;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ds::stream {
namespace {

using mpi::Rank;
using mpi::SendBuf;

constexpr int kProducers = 4;
constexpr int kConsumers = 4;
constexpr int kElementsPerProducer = 16;

/// Heap bytes requested while 4 producers stream synthetic elements of a
/// declared size to 4 consumers (RoundRobin, so tree termination runs too).
/// Every element must arrive with no readable bytes.
std::uint64_t heap_bytes_streaming(std::size_t declared_bytes,
                                   std::uint32_t checkpoint_interval) {
  std::uint64_t consumed = 0;
  bool all_modeled = true;
  const std::uint64_t before = g_heap_bytes;
  testing::run_program(
      testing::tiny_machine(kProducers + kConsumers), [&](Rank& self) {
        const bool producer = self.world_rank() < kProducers;
        ChannelConfig cfg;
        cfg.mapping = ChannelConfig::Mapping::RoundRobin;
        cfg.checkpoint_interval = checkpoint_interval;
        const Channel ch =
            Channel::create(self, self.world(), producer, !producer, cfg);
        Stream s = Stream::attach(
            ch, mpi::Datatype::bytes(declared_bytes),
            [&](const StreamElement& el) {
              ++consumed;
              all_modeled &= el.data == nullptr && el.data_bytes == 0 &&
                             el.bytes == declared_bytes;
            });
        if (producer) {
          for (int i = 0; i < kElementsPerProducer; ++i)
            s.isend_synthetic(self);
          s.terminate(self);
        } else {
          (void)s.operate(self);
        }
      });
  const std::uint64_t used = g_heap_bytes - before;
  EXPECT_EQ(consumed, std::uint64_t{kProducers} * kElementsPerProducer);
  EXPECT_TRUE(all_modeled);
  return used;
}

TEST(StreamReceive, ConsumerHeapDoesNotDependOnDeclaredElementSize) {
  // Consumers used to zero-fill a receive buffer of the largest message the
  // channel could carry — one 8 MB buffer each here. Synthetic elements
  // deliver no bytes, so declaring them large must cost no consumer heap.
  constexpr std::size_t kDeclared = 8u << 20;
  for (const std::uint32_t checkpoint : {0u, 4u}) {
    const std::uint64_t smaller =
        heap_bytes_streaming(kDeclared / 8, checkpoint);
    const std::uint64_t large = heap_bytes_streaming(kDeclared, checkpoint);
    // The whole run, every rank included, allocates far less than one
    // declared element...
    EXPECT_LT(large, kDeclared / 8) << "checkpoint_interval " << checkpoint;
    // ...and the same at an eighth of the declared size (both sizes travel
    // the same way: uncoalesced, by rendezvous).
    const std::uint64_t diff =
        large > smaller ? large - smaller : smaller - large;
    EXPECT_LT(diff, 4096u) << "checkpoint_interval " << checkpoint;
  }
}

TEST(StreamReceive, SelfTunedFramesGrowTowardTheCapAndUnpackIntact) {
  // An unthrottled burst makes the producer grow its frame budget toward
  // kCoalesceGrowthCap times the default; the consumer's buffer follows the
  // frames as they grow, and every real element still unpacks intact.
  struct Record {
    std::uint32_t seq = 0;
    std::uint32_t check = 0;
    std::uint64_t fill[6] = {};
  };
  constexpr std::uint32_t kCount = 3000;
  std::uint32_t budget_end = 0;
  std::uint32_t next = 0;
  bool intact = true;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(
        ch, mpi::Datatype::bytes(sizeof(Record)), [&](const StreamElement& el) {
          Record r;
          intact &= el.data != nullptr && el.data_bytes == sizeof r &&
                    el.bytes == sizeof r;
          if (el.data_bytes < sizeof r) return;
          std::memcpy(&r, el.data, sizeof r);
          intact &= r.seq == next && r.check == ~r.seq;
          for (const std::uint64_t f : r.fill) intact &= f == r.seq * 7ull;
          ++next;
        });
    if (producer) {
      for (std::uint32_t i = 0; i < kCount; ++i) {
        Record r;
        r.seq = i;
        r.check = ~i;
        for (std::uint64_t& f : r.fill) f = i * 7ull;
        s.isend(self, SendBuf::of(&r, 1));
      }
      s.terminate(self);
      budget_end = s.coalesce_budget_now();
    } else {
      (void)s.operate(self);
    }
  });
  EXPECT_GT(budget_end, 2 * ChannelConfig::kDefaultCoalesceBudget);
  EXPECT_LE(budget_end, ChannelConfig::kDefaultCoalesceBudget *
                            ChannelConfig::kCoalesceGrowthCap);
  EXPECT_EQ(next, kCount);
  EXPECT_TRUE(intact);
}

TEST(StreamReceive, HeaderOnlyElementsReportTheirDeliveredBytes) {
  // A header-only element occupies its declared size on the wire but
  // delivers only the header — per-message and framed alike.
  struct Header {
    std::uint64_t id = 0;
  };
  constexpr std::size_t kWire = 4096;
  for (const std::uint32_t budget :
       {0u, 2 * static_cast<std::uint32_t>(kWire)}) {
    int seen = 0;
    testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
      const bool producer = self.world_rank() == 0;
      ChannelConfig cfg;
      cfg.coalesce_budget = budget;
      const Channel ch =
          Channel::create(self, self.world(), producer, !producer, cfg);
      Stream s = Stream::attach(
          ch, mpi::Datatype::bytes(kWire), [&](const StreamElement& el) {
            ++seen;
            EXPECT_EQ(el.bytes, kWire);
            EXPECT_EQ(el.data_bytes, sizeof(Header));
            ASSERT_NE(el.data, nullptr);
            Header h;
            std::memcpy(&h, el.data, sizeof h);
            EXPECT_EQ(h.id, 0xC0FFEEu);
          });
      if (producer) {
        const Header h{0xC0FFEE};
        s.isend(self, SendBuf::header_only(h, kWire));
        s.terminate(self);
      } else {
        (void)s.operate(self);
      }
    });
    EXPECT_EQ(seen, 1) << "coalesce budget " << budget;
  }
}

}  // namespace
}  // namespace ds::stream
