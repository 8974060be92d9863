#include "net/node.hpp"

#include <algorithm>

#include "net/machine.hpp"

namespace anton::net {

namespace {

/// Client `c`'s even share of its node's memory span.
std::span<std::byte> clientMem(std::span<std::byte> nodeMem, int c) {
  const std::size_t bytes = nodeMem.size() / kClientsPerNode;
  return nodeMem.subspan(std::size_t(c) * bytes, bytes);
}

}  // namespace

Node::Node(Machine& machine, int index, util::TorusCoord coord,
           std::span<std::byte> mem, int countersPerClient)
    : machine_(machine),
      index_(index),
      coord_(coord),
      slices_{{{machine, {index, kSlice0}, clientMem(mem, kSlice0),
                countersPerClient},
               {machine, {index, kSlice1}, clientMem(mem, kSlice1),
                countersPerClient},
               {machine, {index, kSlice2}, clientMem(mem, kSlice2),
                countersPerClient},
               {machine, {index, kSlice3}, clientMem(mem, kSlice3),
                countersPerClient}}},
      htis_(machine, {index, kHtis}, clientMem(mem, kHtis), countersPerClient),
      accums_{{{machine, {index, kAccum0}, clientMem(mem, kAccum0),
                countersPerClient},
               {machine, {index, kAccum1}, clientMem(mem, kAccum1),
                countersPerClient}}} {}

sim::Time Node::reserveRing(sim::Time t, std::size_t bytes) {
  sim::Time start = std::max(t, ringBusyUntil_);
  ringBusyUntil_ = start + machine_.latency().ringOccupancy(bytes);
  return start;
}

}  // namespace anton::net
