#include "src/dist/fleet.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "src/dist/shard.h"
#include "src/dist/wire.h"

namespace retrace {

namespace {

bool AsksForTcp(const ReplayConfig& config) {
  return config.transport == ReplayTransport::kTcp || !config.shard_endpoints.empty();
}

}  // namespace

bool UsesTcpShards(const ReplayConfig& config) {
  return AsksForTcp(config) && !config.program.app.empty();
}

ShardFleet::ShardFleet(const IrModule& module, const ReplayConfig& config)
    : module_(module),
      config_(config),
      num_shards_(std::clamp(config.num_shards, 1u, kMaxShards)) {
  // Like every other knob, a garbage fault schedule fails loudly before
  // any work is spent, not after the scout ran.
  std::string fault_err;
  if (!ParseFaultSpec(config_.fault_spec, &fault_spec_, &fault_err)) {
    std::fprintf(stderr, "retrace: bad RETRACE_FAULT_SPEC \"%s\": %s\n",
                 config_.fault_spec.c_str(), fault_err.c_str());
    std::exit(2);
  }
  tcp_ = UsesTcpShards(config_);
  if (!tcp_ && AsksForTcp(config_)) {
    std::fprintf(stderr,
                 "[dist] tcp shards require ReplayConfig::program sources "
                 "(Pipeline fills them); using fork shards instead\n");
  }
}

ShardFleet::~ShardFleet() { Shutdown(); }

bool ShardFleet::Start() {
  if (started_) {
    return live_shards() > 0;
  }
  if (tcp_) {
    transport_ = std::make_unique<TcpTransport>(
        config_.tcp_listen, config_.shard_endpoints,
        [token = config_.shard_token](const std::string& endpoint) {
          const int fd = TcpConnect(endpoint);
          return fd >= 0 &&
                 ServeShardJobs(fd, "loopback-selfspawn", 0, token) == ShardRunStatus::kOk;
        },
        config_.shard_token);
  } else {
    transport_ = std::make_unique<LocalForkTransport>([this](u32 slot, int fd) {
      return ServeShardJobs(fd, module_, slot) == ShardRunStatus::kOk;
    });
  }
  if (!fault_spec_.empty()) {
    std::fprintf(stderr, "[dist] fault injection armed: %s\n", config_.fault_spec.c_str());
    transport_ =
        std::make_unique<FaultInjectingTransport>(std::move(transport_), fault_spec_, config_.seed);
  }
  channels_ = transport_->Start(num_shards_);
  channels_.resize(num_shards_);
  started_ = true;
  const u32 live = live_shards();
  if (live < num_shards_) {
    std::fprintf(stderr, "[fleet] %u of %u shard slot(s) failed to join\n", num_shards_ - live,
                 num_shards_);
  }
  return live > 0;
}

std::vector<WireChannel*> ShardFleet::AttachJob(const ReplayConfig& shard_cfg,
                                                const InstrumentationPlan& plan,
                                                const BugReport& report) {
  Start();
  WireJobBegin begin;
  begin.job_id = ++jobs_dispatched_;
  begin.job.config = shard_cfg;
  if (!tcp_) {
    begin.job.config.program = {};  // Fork children already hold the module.
  }
  begin.job.plan = plan;
  begin.job.report = report;
  WireWriter w;
  EncodeJobBegin(begin, &w);
  std::vector<WireChannel*> out(num_shards_, nullptr);
  for (u32 s = 0; s < num_shards_; ++s) {
    if (channels_[s] == nullptr) {
      continue;
    }
    // Blocking send: it also flushes any relay tail still queued from
    // the previous job, so the shard sees stale frames strictly before
    // the new kJobBegin (its between-jobs loop discards them).
    if (!channels_[s]->Send(WireMsg::kJobBegin, w.buf())) {
      // Broke while idle: retire the slot now rather than letting the
      // scheduler seed a frontier partition into a dead channel.
      transport_->KillSlot(s);
      channels_[s].reset();
      slots_lost_ = true;
      std::fprintf(stderr, "[fleet] shard %u retired: channel broke between jobs\n", s);
      continue;
    }
    out[s] = channels_[s].get();
  }
  return out;
}

void ShardFleet::KillAll() {
  if (transport_ != nullptr) {
    transport_->Kill();
  }
}

void ShardFleet::FinishJob(const std::vector<bool>& lost) {
  for (u32 s = 0; s < num_shards_ && s < lost.size(); ++s) {
    if (lost[s] && channels_[s] != nullptr) {
      // A lost shard may be a live-but-wedged child that would never
      // exit on its own: SIGKILL it now, so the reap at Shutdown is a
      // backstop and not a stall. Closing the channel is the retire
      // signal for every other shard (a remote shardd sees EOF).
      transport_->KillSlot(s);
      channels_[s].reset();
      slots_lost_ = true;
      std::fprintf(stderr, "[fleet] shard %u retired: lost mid-job\n", s);
    }
  }
}

void ShardFleet::Shutdown() {
  if (!started_) {
    return;
  }
  WireWriter w;
  EncodeJobEnd(WireJobEnd{jobs_dispatched_}, &w);
  for (auto& chan : channels_) {
    if (chan != nullptr) {
      chan->Send(WireMsg::kJobEnd, w.buf());
    }
  }
  channels_.clear();  // Closes every fd — the backstop for shards that missed kJobEnd.
  if (tcp_ && slots_lost_) {
    // FinishJob could not SIGKILL a lost TCP child by slot; every
    // survivor has its kJobEnd, so no reap waits on a wedged one.
    transport_->Kill();
  }
  transport_->Reap();
  transport_.reset();
  started_ = false;
  slots_lost_ = false;
}

u32 ShardFleet::live_shards() const {
  u32 live = 0;
  for (const auto& chan : channels_) {
    live += chan != nullptr ? 1 : 0;
  }
  return live;
}

}  // namespace retrace
