#include "src/vos/vos.h"

#include <algorithm>

namespace retrace {

WorldShape WorldShape::StripContents() const {
  WorldShape out = *this;
  for (StreamShape& s : out.streams) {
    s.length = s.bytes.empty() ? s.length : static_cast<i64>(s.bytes.size());
    s.bytes.clear();
  }
  return out;
}

// ----- CellLayout -----------------------------------------------------------

CellLayout CellLayout::Build(const InputSpec& spec) {
  CellLayout layout;
  layout.arg_offsets_.assign(spec.argv.size(), -1);
  for (size_t i = 1; i < spec.argv.size(); ++i) {
    if (spec.ArgIsPublic(i)) {
      continue;  // Public arguments carry no symbolic cells.
    }
    layout.arg_offsets_[i] = static_cast<i32>(layout.defaults_.size());
    for (char c : spec.argv[i]) {
      layout.defaults_.push_back(static_cast<u8>(c));
      layout.domains_.push_back(Interval{0, 255});
      layout.info_.push_back(CellInfo{CellKind::kArgvByte, static_cast<i32>(i),
                                      static_cast<i32>(layout.defaults_.size()) - 1 -
                                          layout.arg_offsets_[i],
                                      Builtin::kRead});
    }
    // The terminating NUL is also part of the symbolic argv buffer (the
    // paper marks whole 100-byte argument buffers symbolic); pinning its
    // domain to {0} keeps the shape fixed while making terminator checks
    // symbolic like every other byte of the argument.
    layout.defaults_.push_back(0);
    layout.domains_.push_back(Interval{0, 0});
    layout.info_.push_back(CellInfo{CellKind::kArgvByte, static_cast<i32>(i),
                                    static_cast<i32>(spec.argv[i].size()), Builtin::kRead});
  }
  for (size_t s = 0; s < spec.world.streams.size(); ++s) {
    const StreamShape& stream = spec.world.streams[s];
    layout.stream_offsets_.push_back(static_cast<i32>(layout.defaults_.size()));
    const i64 len = stream.bytes.empty() ? stream.length : static_cast<i64>(stream.bytes.size());
    for (i64 k = 0; k < len; ++k) {
      const i64 byte = k < static_cast<i64>(stream.bytes.size()) ? stream.bytes[k] : 'a';
      layout.defaults_.push_back(byte);
      layout.domains_.push_back(Interval{0, 255});
      layout.info_.push_back(
          CellInfo{CellKind::kStreamByte, static_cast<i32>(s), static_cast<i32>(k),
                   Builtin::kRead});
    }
  }
  layout.num_static_ = static_cast<i32>(layout.defaults_.size());
  return layout;
}

i32 CellLayout::ArgByteCell(size_t arg, size_t byte) const {
  if (arg >= arg_offsets_.size() || arg_offsets_[arg] < 0) {
    return -1;
  }
  return arg_offsets_[arg] + static_cast<i32>(byte);
}

i32 CellLayout::StreamByteCell(size_t stream, i64 byte) const {
  Check(stream < stream_offsets_.size(), "StreamByteCell: bad stream");
  return stream_offsets_[stream] + static_cast<i32>(byte);
}

std::vector<std::string> CellLayout::MaterializeArgv(const InputSpec& spec,
                                                     const std::vector<i64>& values) const {
  std::vector<std::string> argv;
  for (size_t i = 0; i < spec.argv.size(); ++i) {
    if (i == 0 || arg_offsets_[i] < 0) {
      argv.push_back(spec.argv[i]);
      continue;
    }
    std::string s;
    for (size_t j = 0; j < spec.argv[i].size(); ++j) {
      const i32 cell = ArgByteCell(i, j);
      const i64 v = cell >= 0 && cell < static_cast<i32>(values.size()) ? values[cell]
                                                                        : defaults_[cell];
      s.push_back(static_cast<char>(static_cast<u8>(v)));
    }
    argv.push_back(std::move(s));
  }
  return argv;
}

std::vector<std::vector<i32>> CellLayout::ArgvCells(const InputSpec& spec) const {
  std::vector<std::vector<i32>> out(spec.argv.size());
  for (size_t i = 1; i < spec.argv.size(); ++i) {
    // One cell per content byte plus one for the NUL terminator.
    for (size_t j = 0; j <= spec.argv[i].size(); ++j) {
      out[i].push_back(ArgByteCell(i, j));
    }
  }
  return out;
}

// ----- CellStore -------------------------------------------------------------

CellStore::CellStore(const CellLayout& layout, std::vector<i64> model)
    : layout_(&layout),
      values_(layout.defaults()),
      domains_(layout.domains()),
      info_(layout.info()),
      model_(std::move(model)),
      num_static_(layout.num_static()) {
  for (size_t i = 0; i < values_.size() && i < model_.size(); ++i) {
    values_[i] = std::clamp(model_[i], domains_[i].lo, domains_[i].hi);
  }
}

void CellStore::Reset(const std::vector<i64>& model) {
  values_.assign(layout_->defaults().begin(), layout_->defaults().end());
  domains_.assign(layout_->domains().begin(), layout_->domains().end());
  info_.assign(layout_->info().begin(), layout_->info().end());
  dynamic_trace_.clear();
  model_.assign(model.begin(), model.end());
  for (size_t i = 0; i < values_.size() && i < model_.size(); ++i) {
    values_[i] = std::clamp(model_[i], domains_[i].lo, domains_[i].hi);
  }
  occurrence_ = {};
}

void CellStore::SwapInto(std::vector<i64>* values, std::vector<Interval>* domains,
                         std::vector<CellInfo>* info, std::vector<DynRecord>* dynamic_trace) {
  values->swap(values_);
  domains->swap(domains_);
  info->swap(info_);
  dynamic_trace->swap(dynamic_trace_);
}

i32 CellStore::AllocDynamic(Builtin sys, Interval domain, i64 natural, i64* value_out) {
  const i32 id = static_cast<i32>(values_.size());
  const int occurrence = occurrence_[static_cast<int>(sys)]++;
  i64 value;
  if (id < static_cast<i32>(model_.size())) {
    value = std::clamp(model_[id], domain.lo, domain.hi);
  } else if (policy_ != nullptr) {
    value = std::clamp(policy_->DefaultFor(sys, occurrence, natural), domain.lo, domain.hi);
  } else {
    value = std::clamp(natural, domain.lo, domain.hi);
  }
  values_.push_back(value);
  domains_.push_back(domain);
  info_.push_back(CellInfo{CellKind::kSyscallResult, occurrence, -1, sys});
  dynamic_trace_.push_back(DynRecord{sys, value, id});
  *value_out = value;
  return id;
}

void CellStore::SaveDynamic(Dynamic* out) const {
  out->values.assign(values_.begin() + num_static_, values_.end());
  out->domains.assign(domains_.begin() + num_static_, domains_.end());
  out->info.assign(info_.begin() + num_static_, info_.end());
  out->occurrence = occurrence_;
  out->trace = dynamic_trace_;
}

void CellStore::RestoreDynamic(const Dynamic& from) {
  values_.resize(num_static_);
  values_.insert(values_.end(), from.values.begin(), from.values.end());
  domains_.resize(num_static_);
  domains_.insert(domains_.end(), from.domains.begin(), from.domains.end());
  info_.resize(num_static_);
  info_.insert(info_.end(), from.info.begin(), from.info.end());
  occurrence_ = from.occurrence;
  dynamic_trace_ = from.trace;
}

// ----- VirtualOs -------------------------------------------------------------

VirtualOs::VirtualOs(const WorldShape& shape, CellStore* cells, const CellLayout* layout)
    : shape_(shape), cells_(cells), layout_(layout) {
  Reset();
}

void VirtualOs::Reset() {
  log_diverged_ = false;
  log_cursor_ = 0;
  next_conn_ = 0;
  open_conns_ = 0;
  stdout_.clear();
  num_fd_outputs_ = 0;
  last_read_ = CellRange{};
  fds_.assign(4, FdEntry{});
  fds_[0] = FdEntry{FdEntry::Type::kStdin, shape_.stdin_stream, 0};
  fds_[1] = FdEntry{FdEntry::Type::kStdout, -1, 0};
  fds_[2] = FdEntry{FdEntry::Type::kStdout, -1, 0};
  if (shape_.listen_fd >= 0) {
    if (shape_.listen_fd >= static_cast<i32>(fds_.size())) {
      fds_.resize(shape_.listen_fd + 1);
    }
    fds_[shape_.listen_fd] = FdEntry{FdEntry::Type::kListen, -1, 0};
  }
}

void VirtualOs::Save(State* out) const {
  out->fds = fds_;
  out->next_conn = next_conn_;
  out->open_conns = open_conns_;
  out->stdout_text = stdout_;
  out->fd_output.assign(fd_output_.begin(),
                        fd_output_.begin() + static_cast<std::ptrdiff_t>(num_fd_outputs_));
  out->log_cursor = log_cursor_;
  out->log_diverged = log_diverged_;
  cells_->SaveDynamic(&out->cells);
}

void VirtualOs::Restore(const State& from) {
  fds_ = from.fds;
  next_conn_ = from.next_conn;
  open_conns_ = from.open_conns;
  stdout_ = from.stdout_text;
  if (fd_output_.size() < from.fd_output.size()) {
    fd_output_.resize(from.fd_output.size());
  }
  std::copy(from.fd_output.begin(), from.fd_output.end(), fd_output_.begin());
  num_fd_outputs_ = from.fd_output.size();
  log_cursor_ = from.log_cursor;
  log_diverged_ = from.log_diverged;
  last_read_ = CellRange{};
  cells_->RestoreDynamic(from.cells);
}

i32 VirtualOs::AllocFd(FdEntry entry) {
  for (size_t i = 4; i < fds_.size(); ++i) {
    if (fds_[i].type == FdEntry::Type::kClosed &&
        static_cast<i32>(i) != shape_.listen_fd) {
      fds_[i] = entry;
      return static_cast<i32>(i);
    }
  }
  fds_.push_back(entry);
  return static_cast<i32>(fds_.size()) - 1;
}

i64 VirtualOs::RemainingBytes(const FdEntry& entry) const {
  if (entry.stream < 0) {
    return 0;
  }
  const StreamShape& s = shape_.streams[entry.stream];
  const i64 len = s.bytes.empty() ? s.length : static_cast<i64>(s.bytes.size());
  return std::max<i64>(0, len - entry.cursor);
}

bool VirtualOs::FdReadable(i64 fd) const {
  if (fd < 0 || fd >= static_cast<i64>(fds_.size())) {
    return false;
  }
  const FdEntry& e = fds_[fd];
  switch (e.type) {
    case FdEntry::Type::kStdin:
    case FdEntry::Type::kFile:
    case FdEntry::Type::kConn:
      return RemainingBytes(e) > 0;
    case FdEntry::Type::kListen:
      return next_conn_ < shape_.connection_streams.size() &&
             open_conns_ < shape_.max_concurrent_conns;
    default:
      return false;
  }
}

i64 VirtualOs::Outcome(Builtin b, Interval domain, i64 natural, i32* cell_out) {
  *cell_out = -1;
  if (replay_log_ != nullptr && !log_diverged_) {
    if (log_cursor_ < replay_log_->size() && (*replay_log_)[log_cursor_].kind == b) {
      const i64 v = std::clamp((*replay_log_)[log_cursor_].value, domain.lo, domain.hi);
      ++log_cursor_;
      // Keep the cell store's dynamic numbering aligned even when pinned:
      // allocate the cell but pin its value and drop the shadow.
      i64 ignored;
      cells_->AllocDynamic(b, Interval{v, v}, v, &ignored);
      return v;
    }
    log_diverged_ = true;
  }
  i64 value;
  const i32 cell = cells_->AllocDynamic(b, domain, natural, &value);
  if (symbolic_results_) {
    *cell_out = cell;
  }
  return value;
}

SyscallOutcome VirtualOs::OnSyscall(Builtin b, const std::vector<i64>& int_args,
                                    const std::string& str_arg,
                                    const std::vector<u8>& write_data) {
  switch (b) {
    case Builtin::kRead:
      return DoRead(int_args);
    case Builtin::kWrite:
      return DoWrite(int_args, write_data);
    case Builtin::kOpen:
      return DoOpen(str_arg, int_args[0]);
    case Builtin::kClose:
      return DoClose(int_args[0]);
    case Builtin::kSelectFd:
      return DoSelect(int_args);
    case Builtin::kAcceptConn:
      return DoAccept(int_args[0]);
    case Builtin::kPollSignal:
      return DoPollSignal();
    case Builtin::kPrintInt: {
      stdout_ += std::to_string(int_args[0]);
      return SyscallOutcome{};
    }
    case Builtin::kPrintStr: {
      stdout_ += str_arg;
      return SyscallOutcome{};
    }
    default:
      return SyscallOutcome{};
  }
}

SyscallOutcome VirtualOs::DoRead(const std::vector<i64>& int_args) {
  const i64 fd = int_args[0];
  const i64 n = std::max<i64>(0, int_args[1]);
  SyscallOutcome out;
  last_read_ = CellRange{};
  if (fd < 0 || fd >= static_cast<i64>(fds_.size())) {
    out.ret = -1;
    return out;
  }
  FdEntry& e = fds_[fd];
  if (e.type != FdEntry::Type::kStdin && e.type != FdEntry::Type::kFile &&
      e.type != FdEntry::Type::kConn) {
    out.ret = -1;
    return out;
  }
  const StreamShape& stream = shape_.streams[e.stream];
  const i64 remaining = RemainingBytes(e);
  i64 cap = std::min(n, remaining);
  if (stream.chunk > 0) {
    cap = std::min(cap, stream.chunk);
  }
  i32 cell;
  const i64 ret = Outcome(Builtin::kRead, Interval{-1, cap}, cap, &cell);
  out.ret = ret;
  out.ret_cell = cell;
  if (ret > 0) {
    for (i64 i = 0; i < ret; ++i) {
      const i32 byte_cell = layout_->StreamByteCell(e.stream, e.cursor + i);
      out.data.push_back(static_cast<u8>(cells_->ValueOf(byte_cell)));
      out.data_cells.push_back(byte_cell);
    }
    last_read_ = CellRange{layout_->StreamByteCell(e.stream, e.cursor), static_cast<i32>(ret)};
    e.cursor += ret;
  }
  return out;
}

SyscallOutcome VirtualOs::DoWrite(const std::vector<i64>& int_args,
                                  const std::vector<u8>& data) {
  const i64 fd = int_args[0];
  SyscallOutcome out;
  if (fd == 1) {
    stdout_.append(data.begin(), data.end());
  } else {
    // stderr and sockets are captured per fd.
    FdOutput* output = nullptr;
    for (size_t i = 0; i < num_fd_outputs_ && output == nullptr; ++i) {
      if (fd_output_[i].fd == fd) {
        output = &fd_output_[i];
      }
    }
    if (output == nullptr) {
      if (num_fd_outputs_ == fd_output_.size()) {
        fd_output_.emplace_back();
      }
      output = &fd_output_[num_fd_outputs_++];
      output->fd = static_cast<i32>(fd);
      output->text.clear();
    }
    output->text.append(data.begin(), data.end());
  }
  out.ret = static_cast<i64>(data.size());
  return out;
}

SyscallOutcome VirtualOs::DoOpen(const std::string& path, [[maybe_unused]] i64 flags) {
  SyscallOutcome out;
  for (const auto& [name, stream] : shape_.files) {
    if (name == path) {
      out.ret = AllocFd(FdEntry{FdEntry::Type::kFile, stream, 0});
      return out;
    }
  }
  out.ret = -1;
  return out;
}

SyscallOutcome VirtualOs::DoClose(i64 fd) {
  SyscallOutcome out;
  if (fd < 0 || fd >= static_cast<i64>(fds_.size()) ||
      fds_[fd].type == FdEntry::Type::kClosed) {
    out.ret = -1;
    return out;
  }
  if (fds_[fd].type == FdEntry::Type::kConn) {
    --open_conns_;
  }
  fds_[fd] = FdEntry{};
  out.ret = 0;
  return out;
}

SyscallOutcome VirtualOs::DoSelect(const std::vector<i64>& int_args) {
  const i64 nfds = int_args[0];
  i64 natural = -1;
  for (i64 i = 0; i < nfds; ++i) {
    if (FdReadable(int_args[1 + i])) {
      natural = i;
      break;
    }
  }
  SyscallOutcome out;
  i32 cell;
  out.ret = Outcome(Builtin::kSelectFd, Interval{-1, nfds - 1}, natural, &cell);
  out.ret_cell = cell;
  return out;
}

SyscallOutcome VirtualOs::DoAccept(i64 listen_fd) {
  SyscallOutcome out;
  if (listen_fd != shape_.listen_fd) {
    out.ret = -1;
    return out;
  }
  const bool pending = next_conn_ < shape_.connection_streams.size() &&
                       open_conns_ < shape_.max_concurrent_conns;
  i32 cell;
  const i64 decision = Outcome(Builtin::kAcceptConn, Interval{-1, 0}, pending ? 0 : -1, &cell);
  out.ret_cell = cell;
  if (decision >= 0 && pending) {
    const i32 stream = shape_.connection_streams[next_conn_++];
    ++open_conns_;
    out.ret = AllocFd(FdEntry{FdEntry::Type::kConn, stream, 0});
  } else {
    out.ret = -1;
  }
  return out;
}

SyscallOutcome VirtualOs::DoPollSignal() {
  SyscallOutcome out;
  i32 cell;
  out.ret = Outcome(Builtin::kPollSignal, Interval{0, 1}, 0, &cell);
  out.ret_cell = cell;
  return out;
}

std::string VirtualOs::WrittenTo(i32 fd) const {
  for (size_t i = 0; i < num_fd_outputs_; ++i) {
    if (fd_output_[i].fd == fd) {
      return fd_output_[i].text;
    }
  }
  return std::string();
}

}  // namespace retrace
