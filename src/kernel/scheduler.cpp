#include "kernel/scheduler.hpp"

#include "common/log.hpp"

namespace kshot::kernel {

namespace {
constexpr size_t kMaxRecordedResults = 4096;
}

Thread::Thread(int id, std::vector<SyscallReq> program, bool loop)
    : id_(id), program_(std::move(program)), loop_(loop) {}

Result<int> Scheduler::spawn(std::vector<SyscallReq> program, bool loop) {
  if (threads_.size() >= kernel_.layout().max_threads) {
    return {Errc::kResourceExhausted, "too many threads"};
  }
  if (program.empty()) {
    return {Errc::kInvalidArgument, "empty thread program"};
  }
  int id = static_cast<int>(threads_.size());
  threads_.emplace_back(id, std::move(program), loop);
  return id;
}

void Scheduler::begin_syscall(Thread& t) {
  const MemoryLayout& lay = kernel_.layout();
  const SyscallReq& req = t.program_[t.pc_];
  auto entry = kernel_.syscall_entry(req.nr);
  if (!entry) {
    t.state_ = ThreadState::kOops;
    kernel_.record_oops({t.id_, 0, 0, "bad syscall nr"});
    return;
  }

  u64 stack_top =
      lay.stacks_base + (static_cast<u64>(t.id_) + 1) * lay.stack_size - 64;
  // Push the return sentinel the runtime uses to detect completion.
  if (!machine_.mem()
           .write_u64(stack_top - 8, machine::kReturnSentinel,
                      machine::AccessMode::normal())
           .is_ok()) {
    t.state_ = ThreadState::kOops;
    kernel_.record_oops({t.id_, 0, 0, "stack sentinel write failed"});
    return;
  }

  machine::CpuState ctx{};
  for (size_t i = 0; i < req.args.size(); ++i) ctx.regs[1 + i] = req.args[i];
  ctx.sp() = stack_top - 8;
  ctx.rip = *entry;
  t.ctx_ = ctx;
  t.in_call_ = true;
}

void Scheduler::run_thread_quantum(Thread& t, u64 quantum_instrs) {
  if (t.state_ == ThreadState::kFinished || t.state_ == ThreadState::kOops) {
    return;
  }
  if (!t.in_call_) begin_syscall(t);
  if (t.state_ != ThreadState::kReady) return;

  machine_.cpu() = t.ctx_;
  u64 budget = quantum_instrs;
  while (budget > 0) {
    // Every step spends one unit of budget, the stopping one included.
    machine::StepResult res;  // written only when a step stops
    budget -= machine_.run_into(budget, res);
    switch (res.kind) {
      case machine::StepKind::kOk:
        continue;
      case machine::StepKind::kRetTop: {
        // Syscall finished.
        t.last_result_ = machine_.cpu().regs[0];
        if (t.results_.size() < kMaxRecordedResults) {
          t.results_.push_back(t.last_result_);
        }
        ++t.completed_;
        ++stats_.syscalls_completed;
        t.in_call_ = false;
        ++t.pc_;
        if (t.pc_ >= t.program_.size()) {
          if (t.loop_) {
            t.pc_ = 0;
          } else {
            t.state_ = ThreadState::kFinished;
            t.ctx_ = machine_.cpu();
            return;
          }
        }
        begin_syscall(t);
        if (t.state_ != ThreadState::kReady) return;
        machine_.cpu() = t.ctx_;
        continue;
      }
      case machine::StepKind::kOops:
      case machine::StepKind::kMemFault:
      case machine::StepKind::kBadInstr: {
        t.state_ = ThreadState::kOops;
        ++stats_.oopses;
        kernel_.record_oops(
            {t.id_, machine_.cpu().rip, res.info, res.detail});
        KSHOT_LOG(kDebug, "sched")
            << "thread " << t.id_ << " oops at rip=0x" << std::hex
            << machine_.cpu().rip << std::dec << ": " << res.detail;
        return;
      }
      case machine::StepKind::kHalt:
      case machine::StepKind::kBreak:
        t.state_ = ThreadState::kFinished;
        t.ctx_ = machine_.cpu();
        return;
    }
  }
  // Quantum expired mid-syscall: save context.
  t.ctx_ = machine_.cpu();
}

void Scheduler::run(u64 quanta, u64 quantum_instrs) {
  for (u64 q = 0; q < quanta; ++q) {
    if (!threads_.empty()) {
      Thread& t = threads_[next_ % threads_.size()];
      ++next_;
      run_thread_quantum(t, quantum_instrs);
    }
    ++stats_.quanta;
    // Kernel modules (including rootkits) run with kernel privilege even on
    // an otherwise idle system.
    for (const auto& mod : kernel_.modules()) {
      mod->on_tick(machine_, kernel_);
    }
  }
}

void Scheduler::restart_in_flight_syscalls() {
  for (auto& t : threads_) {
    if (t.in_call_ && t.state_ == ThreadState::kReady) {
      t.in_call_ = false;  // begin_syscall will re-enter the same request
    }
  }
}

bool Scheduler::any_thread_in_range(u64 lo, u64 hi) const {
  for (const auto& t : threads_) {
    if (t.in_call_ && t.state_ == ThreadState::kReady &&
        t.ctx_.rip >= lo && t.ctx_.rip < hi) {
      return true;
    }
  }
  return false;
}

size_t Scheduler::checkpointable_bytes() const {
  size_t total = 0;
  for (const auto& t : threads_) {
    if (t.state() == ThreadState::kReady ||
        t.state() == ThreadState::kRunning || t.mid_syscall()) {
      total += kernel_.layout().stack_size + sizeof(machine::CpuState);
    }
  }
  return total;
}

}  // namespace kshot::kernel
