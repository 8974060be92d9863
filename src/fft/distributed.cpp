#include "fft/distributed.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace anton::fft {

namespace {
constexpr std::uint32_t kPointBytes = sizeof(Complex);  // 16
}

DistributedFft3D::DistributedFft3D(net::Machine& machine, int gx, int gy,
                                   int gz, DistributedFftConfig cfg)
    : machine_(machine),
      cfg_(cfg),
      g_{gx, gy, gz},
      home_(std::size_t(machine.numNodes())),
      rounds_(std::size_t(machine.numNodes())),
      bySource_(std::size_t(machine.numNodes())) {
  const util::TorusShape& shape = machine.shape();
  for (int d = 0; d < 3; ++d) {
    if (g_[std::size_t(d)] <= 0 || !std::has_single_bit(unsigned(g_[std::size_t(d)])))
      throw std::invalid_argument("grid extents must be powers of two");
    if (g_[std::size_t(d)] % shape.extent(d) != 0)
      throw std::invalid_argument("grid extent must divide by torus extent");
    b_[std::size_t(d)] = g_[std::size_t(d)] / shape.extent(d);
  }
  for (auto& blk : home_) blk.assign(blockSize(), Complex{0.0, 0.0});

  std::uint32_t offset = cfg_.memBase;
  for (int d = 0; d < 3; ++d) {
    DimPlan& p = plan_[std::size_t(d)];
    p.d = d;
    p.a = d == 0 ? 1 : 0;
    p.b = d == 2 ? 1 : 2;
    p.ringSize = shape.extent(d);
    p.lineLen = g_[std::size_t(d)];
    p.seg = b_[std::size_t(d)];
    p.linesPerBlock = b_[std::size_t(p.a)] * b_[std::size_t(p.b)];
    int k = cfg_.pointsPerPacket == 0
                ? std::min(p.seg, int(net::kMaxPayloadBytes / kPointBytes))
                : std::min({cfg_.pointsPerPacket, p.seg,
                            int(net::kMaxPayloadBytes / kPointBytes)});
    p.packetsPerSegment = (p.seg + k - 1) / k;
    p.maxOwnedLines = (p.linesPerBlock + p.ringSize - 1) / p.ringSize;
    p.gatherRegion = std::uint32_t(p.maxOwnedLines) * std::uint32_t(p.lineLen) * kPointBytes;
    p.scatterRegion = std::uint32_t(p.linesPerBlock) * std::uint32_t(p.seg) * kPointBytes;
    p.gatherBase = offset;
    offset += 2 * p.gatherRegion;
    p.scatterBase = offset;
    offset += 2 * p.scatterRegion;
  }
  std::size_t memNeeded = offset;
  if (memNeeded > machine.config().clientMemBytes)
    throw std::invalid_argument("FFT receive regions exceed client memory");
}

std::array<int, 3> DistributedFft3D::globalCoord(int nodeIdx,
                                                 std::size_t localIdx) const {
  util::TorusCoord c = util::torusCoordOf(nodeIdx, machine_.shape());
  int lx = int(localIdx % std::size_t(b_[0]));
  int ly = int((localIdx / std::size_t(b_[0])) % std::size_t(b_[1]));
  int lz = int(localIdx / (std::size_t(b_[0]) * std::size_t(b_[1])));
  return {c.x * b_[0] + lx, c.y * b_[1] + ly, c.z * b_[2] + lz};
}

void DistributedFft3D::loadGrid(const std::vector<Complex>& grid) {
  if (grid.size() != std::size_t(g_[0]) * std::size_t(g_[1]) * std::size_t(g_[2]))
    throw std::invalid_argument("grid size mismatch");
  for (int n = 0; n < machine_.numNodes(); ++n) {
    std::vector<Complex>& blk = home_[std::size_t(n)];
    for (std::size_t i = 0; i < blk.size(); ++i) {
      auto [x, y, z] = globalCoord(n, i);
      blk[i] = grid[std::size_t(x) +
                    std::size_t(g_[0]) * (std::size_t(y) + std::size_t(g_[1]) * std::size_t(z))];
    }
  }
}

std::vector<Complex> DistributedFft3D::extractGrid() const {
  std::vector<Complex> grid(std::size_t(g_[0]) * std::size_t(g_[1]) * std::size_t(g_[2]));
  for (int n = 0; n < machine_.numNodes(); ++n) {
    const std::vector<Complex>& blk = home_[std::size_t(n)];
    for (std::size_t i = 0; i < blk.size(); ++i) {
      auto [x, y, z] = globalCoord(n, i);
      grid[std::size_t(x) +
           std::size_t(g_[0]) * (std::size_t(y) + std::size_t(g_[1]) * std::size_t(z))] = blk[i];
    }
  }
  return grid;
}

int DistributedFft3D::ownedLines(int nodeIdx, const DimPlan& p) const {
  int pos = util::torusCoordOf(nodeIdx, machine_.shape())[p.d];
  // Lines with lid % ringSize == pos, lid in [0, linesPerBlock).
  int full = p.linesPerBlock / p.ringSize;
  int rem = p.linesPerBlock % p.ringSize;
  return full + (pos < rem ? 1 : 0);
}

std::uint32_t DistributedFft3D::gatherAddr(const DimPlan& p, int parity,
                                           int ord, int gp) const {
  return p.gatherBase + std::uint32_t(parity) * p.gatherRegion +
         (std::uint32_t(ord) * std::uint32_t(p.lineLen) + std::uint32_t(gp)) *
             kPointBytes;
}

std::uint32_t DistributedFft3D::scatterAddr(const DimPlan& p, int parity,
                                            int lid, int dp) const {
  return p.scatterBase + std::uint32_t(parity) * p.scatterRegion +
         (std::uint32_t(lid) * std::uint32_t(p.seg) + std::uint32_t(dp)) *
             kPointBytes;
}

std::size_t DistributedFft3D::homeIndex(const DimPlan& p, int la, int lb,
                                        int ld) const {
  int l[3];
  l[p.d] = ld;
  l[p.a] = la;
  l[p.b] = lb;
  return std::size_t(l[0]) +
         std::size_t(b_[0]) * (std::size_t(l[1]) + std::size_t(b_[1]) * std::size_t(l[2]));
}

std::uint64_t DistributedFft3D::packetsPerNodePerTransform(int nodeIdx) const {
  std::uint64_t total = 0;
  for (const DimPlan& p : plan_) {
    total += std::uint64_t(p.linesPerBlock) * std::uint64_t(p.packetsPerSegment);
    total += std::uint64_t(ownedLines(nodeIdx, p)) * std::uint64_t(p.ringSize) *
             std::uint64_t(p.packetsPerSegment);
  }
  return total;
}

std::string DistributedFft3D::appendPlan(verify::CommPlan& plan,
                                         const std::string& afterPhase,
                                         bool inverse, int parity) const {
  static constexpr const char* kDimName[3] = {"x", "y", "z"};
  const util::TorusShape& shape = machine_.shape();
  const std::string label = inverse ? "inv" : "fwd";
  std::string prev = afterPhase;
  for (int step = 0; step < 3; ++step) {
    const int d = inverse ? 2 - step : step;
    const DimPlan& p = plan_[std::size_t(d)];
    const int gatherCtr = cfg_.counterBase + 2 * d;
    const int scatterCtr = cfg_.counterBase + 2 * d + 1;
    const std::uint64_t pps = std::uint64_t(p.packetsPerSegment);
    // Lines of a block owned by ring position `pos` (round-robin by lid).
    auto linesAtPos = [&p](int pos) {
      return std::uint64_t(p.linesPerBlock / p.ringSize +
                           (pos < p.linesPerBlock % p.ringSize ? 1 : 0));
    };
    const std::string pfx = "fft." + label + "." + kDimName[d];
    const std::string pGather = pfx + ".gather";  // push segments to owners
    const std::string pXform = pfx + ".xform";    // wait, read, FFT, scatter
    const std::string pUnpack = pfx + ".unpack";  // wait, read home segments
    plan.addPhaseEdge(prev, pGather);
    plan.addPhaseEdge(pGather, pXform);
    plan.addPhaseEdge(pXform, pUnpack);
    prev = pUnpack;

    for (int n = 0; n < machine_.numNodes(); ++n) {
      util::TorusCoord coord = util::torusCoordOf(n, shape);
      const std::uint64_t myOwned = linesAtPos(coord[d]);

      // The transform coroutine waits on the gather counter, reads, runs the
      // FFT and only then scatters: the defaults (waits at seq 0, sends at
      // seq 1) are the live order, stated here explicitly because the
      // event-granular checks depend on it.
      verify::CounterExpectation ge;
      ge.site = pGather;
      ge.phase = pXform;
      ge.client = {n, cfg_.fftSlice};
      ge.counterId = gatherCtr;
      ge.perRound = myOwned * std::uint64_t(p.ringSize) * pps;
      ge.seq = 0;
      ge.recoveryArmed = recovery_.armed();

      verify::CounterExpectation se;
      se.site = pXform;  // the scatter writes are issued from xform
      se.phase = pUnpack;
      se.client = {n, cfg_.fftSlice};
      se.counterId = scatterCtr;
      se.perRound = std::uint64_t(p.linesPerBlock) * pps;
      se.recoveryArmed = recovery_.armed();

      verify::BufferPlan gb;
      gb.name = pGather;
      gb.client = ge.client;
      gb.base = p.gatherBase + std::uint32_t(parity) * p.gatherRegion;
      gb.bytes = p.gatherRegion;
      gb.copies = 1;  // this parity copy is reused every template round
      gb.freePhase = pXform;

      verify::BufferPlan sb;
      sb.name = pXform + ".scatter";
      sb.client = ge.client;
      sb.base = p.scatterBase + std::uint32_t(parity) * p.scatterRegion;
      sb.bytes = p.scatterRegion;
      sb.copies = 1;
      sb.freePhase = pUnpack;

      for (int o = 0; o < p.ringSize; ++o) {
        util::TorusCoord oc = coord;
        oc[d] = o;
        int peer = util::torusIndex(oc, shape);
        std::uint64_t peerOwned = linesAtPos(o);
        // Gather: my segments of every line owned by `peer`.
        if (peerOwned != 0) {
          verify::PlannedWrite w;
          w.phase = pGather;
          w.srcNode = n;
          w.dst = {peer, cfg_.fftSlice};
          w.counterId = gatherCtr;
          w.packets = peerOwned * pps;
          plan.writes.push_back(w);
          se.bySource[peer] = peerOwned * pps;
          sb.writers.push_back({peer, pXform});
        }
        ge.bySource[peer] = myOwned * pps;
        if (myOwned != 0) gb.writers.push_back({peer, pGather});
        // Scatter: my owned lines' segments back to every ring node. The
        // sends follow the gather wait in program order (w.seq = 1 default).
        if (myOwned != 0) {
          verify::PlannedWrite w;
          w.phase = pXform;
          w.srcNode = n;
          w.dst = {peer, cfg_.fftSlice};
          w.counterId = scatterCtr;
          w.packets = myOwned * pps;
          w.seq = 1;
          plan.writes.push_back(w);
        }
      }
      if (myOwned == 0) ge.bySource.clear();
      plan.expectations.push_back(std::move(ge));
      plan.expectations.push_back(std::move(se));
      plan.buffers.push_back(std::move(gb));
      plan.buffers.push_back(std::move(sb));
    }
  }
  return prev;
}

sim::Task DistributedFft3D::run(int nodeIdx, bool inverse) {
  const util::TorusShape& shape = machine_.shape();
  const util::TorusCoord coord = util::torusCoordOf(nodeIdx, shape);
  net::ProcessingSlice& slice = machine_.slice(nodeIdx, cfg_.fftSlice);
  std::vector<Complex>& blk = home_[std::size_t(nodeIdx)];

  for (int step = 0; step < 3; ++step) {
    const int d = inverse ? 2 - step : step;
    const DimPlan& p = plan_[std::size_t(d)];
    const int gatherCtr = cfg_.counterBase + 2 * d;
    const int scatterCtr = cfg_.counterBase + 2 * d + 1;
    const int myPos = coord[d];
    const int myOwned = ownedLines(nodeIdx, p);

    const std::uint64_t round = ++rounds_[std::size_t(nodeIdx)][std::size_t(d)];
    const int parity = int((round - 1) % 2);

    // --- gather: push my segments of every line to the line owners -------
    const int kEff = (p.seg + p.packetsPerSegment - 1) / p.packetsPerSegment;
    std::vector<std::byte> buf(std::size_t(kEff) * kPointBytes);
    for (int lid = 0; lid < p.linesPerBlock; ++lid) {
      const int la = lid % b_[std::size_t(p.a)];
      const int lb = lid / b_[std::size_t(p.a)];
      util::TorusCoord ownerCoord = coord;
      ownerCoord[d] = lid % p.ringSize;
      const int ownerNode = util::torusIndex(ownerCoord, shape);
      const int ord = lid / p.ringSize;
      for (int dp0 = 0; dp0 < p.seg; dp0 += kEff) {
        const int cnt = std::min(kEff, p.seg - dp0);
        for (int i = 0; i < cnt; ++i) {
          Complex v = blk[homeIndex(p, la, lb, dp0 + i)];
          std::memcpy(buf.data() + std::size_t(i) * kPointBytes, &v, kPointBytes);
        }
        net::NetworkClient::SendArgs args;
        args.dst = {ownerNode, cfg_.fftSlice};
        args.counterId = gatherCtr;
        args.address = gatherAddr(p, parity, ord, myPos * p.seg + dp0);
        args.payload = net::makePayload(buf.data(), std::size_t(cnt) * kPointBytes);
        co_await slice.send(args);
      }
    }
    co_await machine_.sim().delay(
        sim::ns(cfg_.packPointNs * double(p.linesPerBlock * p.seg)));

    const std::uint64_t gatherExpected =
        std::uint64_t(myOwned) * std::uint64_t(p.ringSize) *
        std::uint64_t(p.packetsPerSegment);
    RingSources& sources = bySource_[std::size_t(nodeIdx)][std::size_t(d)];
    if (recovery_.armed() && myOwned != 0) {
      // Every ring peer (self included) owes my-owned-lines segments.
      for (int o = 0; o < p.ringSize; ++o) {
        util::TorusCoord oc = coord;
        oc[d] = o;
        sources.gather[util::torusIndex(oc, shape)] =
            round * std::uint64_t(myOwned) * std::uint64_t(p.packetsPerSegment);
      }
    }
    co_await core::awaitCounted(slice, gatherCtr, round * gatherExpected,
                                sources.gather, recovery_);

    // --- compute: 1D FFTs on my owned lines ------------------------------
    std::vector<std::vector<Complex>> lines(static_cast<std::size_t>(myOwned));
    for (int ord = 0; ord < myOwned; ++ord) {
      auto& line = lines[std::size_t(ord)];
      line.resize(std::size_t(p.lineLen));
      for (int gp = 0; gp < p.lineLen; ++gp)
        line[std::size_t(gp)] = slice.read<Complex>(gatherAddr(p, parity, ord, gp));
      fft1d(line, inverse);
    }
    const double fftNs = cfg_.fftPointNs * double(myOwned) * double(p.lineLen) *
                         double(std::bit_width(unsigned(p.lineLen)) - 1);
    co_await machine_.sim().delay(sim::ns(fftNs));

    // --- scatter: return transformed segments to home blocks -------------
    for (int ord = 0; ord < myOwned; ++ord) {
      const int lid = ord * p.ringSize + myPos;
      const auto& line = lines[std::size_t(ord)];
      for (int s = 0; s < p.ringSize; ++s) {
        util::TorusCoord dstCoord = coord;
        dstCoord[d] = s;
        const int dstNode = util::torusIndex(dstCoord, shape);
        for (int dp0 = 0; dp0 < p.seg; dp0 += kEff) {
          const int cnt = std::min(kEff, p.seg - dp0);
          for (int i = 0; i < cnt; ++i) {
            Complex v = line[std::size_t(s * p.seg + dp0 + i)];
            std::memcpy(buf.data() + std::size_t(i) * kPointBytes, &v, kPointBytes);
          }
          net::NetworkClient::SendArgs args;
          args.dst = {dstNode, cfg_.fftSlice};
          args.counterId = scatterCtr;
          args.address = scatterAddr(p, parity, lid, dp0);
          args.payload = net::makePayload(buf.data(), std::size_t(cnt) * kPointBytes);
          co_await slice.send(args);
        }
      }
    }

    const std::uint64_t scatterExpected =
        std::uint64_t(p.linesPerBlock) * std::uint64_t(p.packetsPerSegment);
    if (recovery_.armed()) {
      // Each owning ring peer returns its owned lines' segments to me.
      for (int o = 0; o < p.ringSize; ++o) {
        const std::uint64_t owned =
            std::uint64_t(p.linesPerBlock / p.ringSize +
                          (o < p.linesPerBlock % p.ringSize ? 1 : 0));
        if (owned == 0) continue;
        util::TorusCoord oc = coord;
        oc[d] = o;
        sources.scatter[util::torusIndex(oc, shape)] =
            round * owned * std::uint64_t(p.packetsPerSegment);
      }
    }
    co_await core::awaitCounted(slice, scatterCtr, round * scatterExpected,
                                sources.scatter, recovery_);

    // --- unpack the scatter region into the home block -------------------
    for (int lid = 0; lid < p.linesPerBlock; ++lid) {
      const int la = lid % b_[std::size_t(p.a)];
      const int lb = lid / b_[std::size_t(p.a)];
      for (int dp = 0; dp < p.seg; ++dp)
        blk[homeIndex(p, la, lb, dp)] =
            slice.read<Complex>(scatterAddr(p, parity, lid, dp));
    }
    co_await machine_.sim().delay(
        sim::ns(cfg_.packPointNs * double(p.linesPerBlock * p.seg)));
  }
}

}  // namespace anton::fft
