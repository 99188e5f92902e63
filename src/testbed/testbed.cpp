#include "testbed/testbed.hpp"

namespace kshot::testbed {

kcc::CompileOptions options_for_layout(const kernel::MemoryLayout& lay,
                                       const std::string& version) {
  kcc::CompileOptions opts;
  opts.text_base = lay.text_base;
  opts.data_base = lay.data_base;
  opts.enable_inlining = true;
  opts.enable_ftrace = true;
  opts.version = version;
  return opts;
}

Result<std::unique_ptr<Testbed>> Testbed::boot(const cve::CveCase& c,
                                               TestbedOptions opts) {
  auto tb = std::unique_ptr<Testbed>(new Testbed(c));
  const kernel::MemoryLayout& lay = opts.layout;
  tb->layout_ = lay;

  tb->machine_ = std::make_unique<machine::Machine>(
      lay.mem_bytes, lay.smram_base, lay.smram_size, opts.seed);
  KSHOT_RETURN_IF_ERROR(tb->machine_->set_cpus(opts.cpus));
  tb->machine_->set_serial_rendezvous(opts.serial_rendezvous);
  tb->sgx_ = std::make_unique<sgx::SgxRuntime>(
      *tb->machine_, lay.epc_base, lay.epc_size, opts.seed ^ 0xA77E57);
  if (opts.fault_plan) {
    auto inj = std::make_unique<netsim::FaultInjector>(*opts.fault_plan,
                                                       opts.fault_seed);
    tb->fault_injector_ = inj.get();
    tb->channel_ = std::move(inj);
  } else {
    tb->channel_ = std::make_unique<netsim::Channel>();
  }
  if (opts.shared_server != nullptr) {
    tb->server_ = opts.shared_server;
    tb->server_->add_verifier(tb->sgx_.get());
  } else {
    tb->owned_server_ = std::make_unique<netsim::PatchServer>(
        tb->sgx_.get(), opts.seed ^ 0x5E17E5, opts.metrics);
    tb->server_ = tb->owned_server_.get();
    if (opts.trace) tb->owned_server_->set_trace(opts.trace);
  }

  tb->server_->add_patch(
      {c.id, c.kernel, c.pre_source, c.post_source});

  auto pre = tb->server_->build_pre_image(
      c.id, options_for_layout(lay, c.kernel));
  if (!pre) return pre.status();
  tb->pre_image_ = *pre;

  tb->kernel_ =
      std::make_unique<kernel::Kernel>(*tb->machine_, std::move(*pre), lay);
  KSHOT_RETURN_IF_ERROR(tb->kernel_->load());

  KSHOT_RETURN_IF_ERROR(
      tb->kernel_->register_syscall(cve::kSysAccount, "sys_account"));
  KSHOT_RETURN_IF_ERROR(
      tb->kernel_->register_syscall(cve::kSysBusy, "sys_busy"));
  KSHOT_RETURN_IF_ERROR(
      tb->kernel_->register_syscall(cve::kSysHash, "sys_hash"));
  KSHOT_RETURN_IF_ERROR(
      tb->kernel_->register_syscall(c.syscall_nr, c.entry_function));

  tb->sched_ = std::make_unique<kernel::Scheduler>(*tb->machine_,
                                                   *tb->kernel_);
  for (int i = 0; i < opts.workload_threads; ++i) {
    auto tid = tb->sched_->spawn(
        {{cve::kSysBusy, {8, 0, 0, 0, 0}},
         {cve::kSysHash, {static_cast<u64>(i), 0, 0, 0, 0}}},
        /*loop=*/true);
    if (!tid) return tid.status();
  }

  tb->kshot_ = std::make_unique<core::Kshot>(
      *tb->kernel_, *tb->sgx_, *tb->server_, *tb->channel_,
      opts.seed ^ 0xC0FFEE);
  if (opts.metrics) tb->kshot_->set_metrics(opts.metrics);
  if (opts.trace) tb->kshot_->set_trace(opts.trace, opts.trace_target);
  if (opts.retry_policy) tb->kshot_->set_retry_policy(*opts.retry_policy);
  if (opts.install_kshot) {
    KSHOT_RETURN_IF_ERROR(
        tb->kshot_->install(opts.watchdog_interval_cycles));
  }
  return tb;
}

Result<SyscallOutcome> Testbed::run_syscall(int nr, std::array<u64, 5> args,
                                            u64 max_instrs) {
  auto entry = kernel_->syscall_entry(nr);
  if (!entry) return entry.status();
  const auto& lay = kernel_->layout();

  // Use the last stack slot (beyond scheduler threads) for direct calls.
  u64 stack_top =
      lay.stacks_base + lay.max_threads * lay.stack_size - 64;
  machine::CpuState saved = machine_->cpu();

  machine::CpuState ctx{};
  for (size_t i = 0; i < args.size(); ++i) ctx.regs[1 + i] = args[i];
  ctx.sp() = stack_top - 8;
  ctx.rip = *entry;
  KSHOT_RETURN_IF_ERROR(machine_->mem().write_u64(
      ctx.sp(), machine::kReturnSentinel, machine::AccessMode::normal()));
  machine_->cpu() = ctx;

  SyscallOutcome out;
  machine::StepResult res = machine_->run(max_instrs);
  switch (res.kind) {
    case machine::StepKind::kRetTop:
      out.value = machine_->cpu().regs[0];
      break;
    case machine::StepKind::kOops:
      out.oops = true;
      out.trap_code = res.info;
      out.detail = res.detail;
      break;
    default: {
      const u64 rip = machine_->cpu().rip;
      machine_->cpu() = saved;
      return Status{Errc::kInternal,
                    "syscall did not complete: " +
                        machine::describe_stop(res, max_instrs, rip)};
    }
  }
  machine_->cpu() = saved;
  return out;
}

Result<SyscallOutcome> Testbed::run_exploit() {
  return run_syscall(case_.syscall_nr, case_.exploit_args);
}

Result<SyscallOutcome> Testbed::run_benign() {
  return run_syscall(case_.syscall_nr, case_.benign_args);
}

kcc::CompileOptions Testbed::compile_options() const {
  return options_for_layout(kernel_->layout(), case_.kernel);
}

cve::ProbeFn prober(Testbed& tb) {
  return [&tb](int nr,
               const std::array<u64, 5>& args) -> Result<cve::ProbeOutcome> {
    auto out = tb.run_syscall(nr, args);
    if (!out) return out.status();
    cve::ProbeOutcome po;
    po.oops = out->oops;
    po.trap_code = static_cast<u8>(out->trap_code);
    po.value = out->value;
    return po;
  };
}

cve::CveCase make_size_sweep_case(size_t target_bytes) {
  cve::CveCase c;
  c.id = "SWEEP-" + std::to_string(target_bytes);
  c.kernel = "sim-4.4";
  c.functions = {"sweep_target"};
  c.types = "1";
  c.trap_code = 99;
  c.syscall_nr = 90;
  c.entry_function = "sweep_target";
  c.exploit_args = {8192, 0, 0, 0, 0};
  c.benign_args = {123, 0, 0, 0, 0};

  std::string base = cve::base_kernel_source();
  if (target_bytes < 128) {
    // Minimal untraced function: the whole body is the patch payload.
    c.pre_source = base +
        "\nnotrace fn sweep_target(a1, a2) {\n"
        "  if (a1 > 4096) {\n    bug(99);\n  }\n"
        "  return a1 + 1;\n}\n";
    c.post_source = base +
        "\nnotrace fn sweep_target(a1, a2) {\n"
        "  if (a1 > 4096) {\n    return 0 - 22;\n  }\n"
        "  return a1 + 1;\n}\n";
    return c;
  }

  // Padded function: the post body carries ~target_bytes of code. The fixed
  // parts of the schema are ~120 bytes; the pad makes up the rest.
  size_t pad = target_bytes > 140 ? target_bytes - 140 : 8;
  auto body = [&](bool fixed) {
    std::string guard = fixed ? "    return 0 - 22;\n" : "    bug(99);\n";
    return std::string("\nfn sweep_target(a1, a2) {\n") +
           "  let t = k_account();\n" +
           "  if (a1 > 4096) {\n" + guard + "  }\n" +
           "  pad(" + std::to_string(pad) + ");\n" +
           "  return k_hash(a1 & 4095) + t * 0;\n}\n";
  };
  c.pre_source = base + body(false);
  c.post_source = base + body(true);
  return c;
}

cve::CveCase make_splice_sweep_case(size_t target_bytes) {
  cve::CveCase c;
  c.id = "SPLICE-" + std::to_string(target_bytes);
  c.kernel = "sim-4.4";
  c.functions = {"splice_target"};
  c.types = "1";
  c.trap_code = 98;
  c.syscall_nr = 91;
  c.entry_function = "splice_target";
  c.exploit_args = {8192, 0, 0, 0, 0};
  c.benign_args = {123, 0, 0, 0, 0};

  // The vulnerable guard traps on the exploit input; the fix widens the
  // constant so the trap is unreachable. Both bodies are byte-count
  // identical (only an immediate changes), which is what makes the patched
  // function fit the old footprint and splice in place.
  std::string base = cve::base_kernel_source();
  size_t pad = target_bytes > 140 ? target_bytes - 140 : 8;
  auto body = [&](const char* limit) {
    return std::string("\nfn splice_target(a1, a2) {\n") +
           "  let t = k_account();\n" +
           "  if (a1 > " + limit + ") {\n    bug(98);\n  }\n" +
           "  pad(" + std::to_string(pad) + ");\n" +
           "  return k_hash(a1 & 4095) + t * 0;\n}\n";
  };
  c.pre_source = base + body("4096");
  c.post_source = base + body("999999999");
  return c;
}

kernel::MemoryLayout layout_for_patch_bytes(size_t target_bytes) {
  if (target_bytes <= 512 * 1024) return kernel::MemoryLayout{};
  return kernel::MemoryLayout::for_size_sweep();
}

}  // namespace kshot::testbed
